// A tour of the DDL dialect and the administration model of paper §2:
// regions are the only new *physical* structure; tablespaces, tables and
// indexes work exactly as a DBA expects, and misconfigurations fail with
// clear errors instead of silent misplacement.
//
//   build/examples/ddl_tour
#include <cstdio>

#include "db/database.h"

using namespace noftl;

namespace {
int unexpected = 0;

/// Run one statement and print its outcome. `refused` marks a statement the
/// tour expects to fail; any other outcome is counted and fails the run.
void Show(db::Database* db, const char* sql, bool refused = false) {
  Status s = db->ExecuteDdl(sql);
  const bool surprise = s.ok() == refused;
  if (surprise) unexpected++;
  printf("%-74s -> %s%s\n", sql, s.ToString().c_str(),
         surprise ? "  (UNEXPECTED)" : "");
}
}  // namespace

int main() {
  db::DatabaseOptions options;
  options.geometry.channels = 4;
  options.geometry.dies_per_channel = 4;
  options.geometry.blocks_per_die = 64;
  options.geometry.page_size = 4096;
  auto db = db::Database::Open(options);
  if (!db.ok()) return 1;

  printf("== creating physical and logical structures\n");
  Show(db->get(), "CREATE REGION rgHot (MAX_CHIPS=8, MAX_CHANNELS=4)");
  Show(db->get(), "CREATE REGION rgCold (MAX_CHIPS=4, MAX_SIZE=16M)");
  Show(db->get(), "CREATE TABLESPACE tsHot (REGION=rgHot, EXTENT SIZE 128K)");
  Show(db->get(), "CREATE TABLESPACE tsCold (REGION=rgCold)");
  Show(db->get(),
       "CREATE TABLE ORDERS (o_id NUMBER(8), o_total DECIMAL(12,2)) "
       "TABLESPACE tsHot");
  Show(db->get(), "CREATE TABLE ARCHIVE (a_id NUMBER(8)) TABLESPACE tsCold");
  Show(db->get(), "CREATE INDEX o_idx ON ORDERS (o_id)");

  printf("\n== the DBA cannot overcommit or dangle references\n");
  Show(db->get(), "CREATE REGION rgHuge (MAX_CHIPS=99)", true);
  Show(db->get(), "CREATE REGION rgTight (MAX_CHIPS=1, MAX_SIZE=1G)", true);
  Show(db->get(), "CREATE TABLESPACE tsBad (REGION=rgGhost)", true);
  Show(db->get(), "CREATE TABLE T2 (x NUMBER(1)) TABLESPACE tsGhost", true);
  Show(db->get(), "DROP REGION rgHot", true);  // Busy: tsHot uses it

  printf("\n== catalog view\n");
  for (const auto& name : (*db)->TableNames()) {
    const db::TableSchema* schema = (*db)->GetSchema(name);
    printf("table %-10s (tablespace %s):", name.c_str(),
           schema->tablespace.c_str());
    for (const auto& col : schema->columns) {
      printf(" %s %s", col.name.c_str(), col.type.c_str());
    }
    printf("\n");
  }
  for (auto* rg : (*db)->regions()->regions()) {
    printf("region %-8s: %zu dies, %llu pages logical, avg erase %.1f\n",
           rg->name().c_str(), rg->dies().size(),
           static_cast<unsigned long long>(rg->logical_pages()),
           rg->AvgEraseCount());
  }

  printf("\n== regions are dynamic (paper: die sets change over time)\n");
  Show(db->get(), "ALTER REGION rgHot ADD CHIPS 2");
  Show(db->get(), "ALTER REGION rgHot ADD CHIPS 99", true);
  Show(db->get(), "ALTER REGION rgCold REMOVE CHIPS 1");

  printf("\n== cleanup\n");
  Show(db->get(), "DROP INDEX o_idx");
  Show(db->get(), "DROP TABLE ORDERS");
  Show(db->get(), "DROP REGION rgCold", true);  // still Busy (tsCold)
  if (unexpected != 0) {
    fprintf(stderr, "%d statement(s) did not behave as expected\n",
            unexpected);
    return 1;
  }
  return 0;
}
