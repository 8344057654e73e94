#include "tpcc/profile.h"

#include <algorithm>
#include <cmath>

namespace noftl::tpcc {

std::vector<ObjectProfile> CollectProfile(TpccDb* db) {
  db::Database* database = db->database();

  // Page counts per object id, summed over all tablespaces (collected
  // through the objects we know; indexes share their table's tablespaces
  // under every placement this module produces).
  std::map<uint32_t, uint64_t> pages;
  std::vector<storage::Tablespace*> tablespaces;
  auto add_ts = [&](storage::Tablespace* ts) {
    if (ts != nullptr &&
        std::find(tablespaces.begin(), tablespaces.end(), ts) ==
            tablespaces.end()) {
      tablespaces.push_back(ts);
    }
  };
  const storage::HeapFile* tables[] = {
      db->warehouse, db->district, db->customer, db->history, db->new_order,
      db->order,     db->order_line, db->item,   db->stock};
  for (const auto* t : tables) {
    add_ts(const_cast<storage::HeapFile*>(t)->tablespace());
  }
  for (auto* ts : tablespaces) {
    for (const auto& [object_id, count] : ts->PageCountByObject()) {
      pages[object_id] += count;
    }
  }

  std::vector<ObjectProfile> out;
  for (const auto& object : AllTpccObjects()) {
    ObjectProfile p;
    p.object = object;
    out.push_back(p);
  }
  auto find = [&](const std::string& name) -> ObjectProfile* {
    for (auto& p : out) {
      if (p.object == name) return &p;
    }
    return nullptr;
  };
  for (const auto& [object_id, count] : pages) {
    const std::string name = database->ObjectNameOf(object_id);
    if (ObjectProfile* p = find(name)) p->pages = count;
  }
  for (const auto& [object_id, counts] : database->io_stats()->all()) {
    const std::string name = database->ObjectNameOf(object_id);
    if (ObjectProfile* p = find(name)) {
      p->reads = counts.reads;
      p->writes = counts.writes;
    }
  }
  return out;
}

PlacementConfig DerivePlacementFromProfile(
    const std::vector<PlacementGroup>& groups, const std::string& label,
    const std::vector<ObjectProfile>& profile, uint32_t total_dies,
    uint64_t usable_pages_per_die, double growth_factor,
    double capacity_margin) {
  std::vector<RegionDemand> demand(groups.size());
  for (size_t i = 0; i < groups.size(); i++) {
    uint64_t pages = 0;
    for (const auto& object : groups[i].objects) {
      for (const auto& p : profile) {
        if (p.object != object) continue;
        pages += p.pages;
        demand[i].reads += static_cast<double>(p.reads);
        demand[i].writes += static_cast<double>(p.writes);
      }
    }
    demand[i].pages = static_cast<uint64_t>(
        std::ceil(growth_factor * static_cast<double>(pages)));
  }
  return ApportionByServiceDemand(groups, label, demand, total_dies,
                                  usable_pages_per_die, capacity_margin);
}

}  // namespace noftl::tpcc
