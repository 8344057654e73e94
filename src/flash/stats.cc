#include "flash/stats.h"

#include <cstdio>

namespace noftl::flash {

const char* OpOriginName(OpOrigin origin) {
  switch (origin) {
    case OpOrigin::kHost: return "host";
    case OpOrigin::kGc: return "gc";
    case OpOrigin::kWearLevel: return "wl";
    case OpOrigin::kMeta: return "meta";
  }
  return "?";
}

double FlashStats::WriteAmplification() const {
  const uint64_t host = host_writes();
  if (host == 0) return 0.0;
  return static_cast<double>(total_programs() + total_copybacks()) /
         static_cast<double>(host);
}

void FlashStats::Reset() {
  reads.fill(0);
  programs.fill(0);
  erases.fill(0);
  copybacks.fill(0);
  host_read_latency_us.Reset();
  host_write_latency_us.Reset();
}

std::string FlashStats::ToString() const {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "reads=%llu (host %llu) programs=%llu (host %llu) "
           "copybacks=%llu (gc %llu) erases=%llu (gc %llu) WA=%.2f",
           static_cast<unsigned long long>(total_reads()),
           static_cast<unsigned long long>(host_reads()),
           static_cast<unsigned long long>(total_programs()),
           static_cast<unsigned long long>(host_writes()),
           static_cast<unsigned long long>(total_copybacks()),
           static_cast<unsigned long long>(gc_copybacks()),
           static_cast<unsigned long long>(total_erases()),
           static_cast<unsigned long long>(gc_erases()),
           WriteAmplification());
  return buf;
}

}  // namespace noftl::flash
