// The *traditional SSD* baseline: a page-mapping FTL hiding the whole device
// behind an immutable-address block-device interface.
//
// This is the comparator the paper's §1 argues against: the DBMS sees only
// ReadSector/WriteSector over a linear LBA space; hot and cold data from all
// database objects mix in the same physical pool; GC and WL run inside the
// "device" with no knowledge of the data. Over-provisioning is the classic
// SSD knob (physical capacity withheld from the logical space).
#pragma once

#include <cstdint>
#include <memory>

#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/device.h"
#include "ftl/mapping.h"

namespace noftl::ftl {

struct FtlOptions {
  /// Fraction of physical pages withheld as over-provisioning (7% is a
  /// consumer-SSD default; enterprise drives use up to 28%).
  double over_provisioning = 0.125;
  MapperOptions mapper;
};

/// Block device built from a page-level FTL over all dies of the device.
/// Sector size equals the flash page size.
class PageMappingFtl {
 public:
  PageMappingFtl(flash::FlashDevice* device, const FtlOptions& options);

  /// Number of addressable sectors (logical pages).
  uint64_t sector_count() const { return mapper_->logical_pages(); }
  uint32_t sector_size() const;

  /// Block-device reads/writes at sector granularity. Reads of never-written
  /// sectors fail with NotFound (a real drive would return zeroes; failing
  /// loudly catches engine bugs).
  Status ReadSector(uint64_t lba, SimTime issue, char* data, SimTime* complete);
  Status WriteSector(uint64_t lba, SimTime issue, const char* data,
                     SimTime* complete);

  /// TRIM/deallocate a sector (SATA DSM / NVMe deallocate analogue).
  Status Trim(uint64_t lba);

  /// Queued submission (NVMe-style queue pair): every request enters the
  /// device at `issue`, cross-die requests overlap, and the caller reaps
  /// completions with WaitBatch — computation between submit and reap
  /// overlaps with the in-flight flash work. Object ids are discarded
  /// (invisible below the block interface) and atomic batches
  /// route through the mapper's atomic-batch machinery — the one piece of
  /// semantics a block device can still offer without knowing what the data
  /// is.
  Status SubmitBatch(storage::IoBatch* batch, SimTime issue,
                     storage::IoTicket* ticket);
  Status WaitBatch(storage::IoTicket ticket, SimTime* complete) {
    return mapper_->WaitBatch(ticket, complete);
  }
  Status RunBatch(storage::IoBatch* batch, SimTime issue, SimTime* complete) {
    storage::IoTicket ticket = 0;
    NOFTL_RETURN_IF_ERROR(SubmitBatch(batch, issue, &ticket));
    return WaitBatch(ticket, complete);
  }

  const MapperStats& stats() const { return mapper_->stats(); }
  /// Cross-check the FTL's translation state against the device.
  Status VerifyIntegrity() const { return mapper_->VerifyIntegrity(); }
  OutOfPlaceMapper& mapper() { return *mapper_; }

 private:
  flash::FlashDevice* device_;
  FtlOptions options_;
  std::unique_ptr<OutOfPlaceMapper> mapper_;
};

}  // namespace noftl::ftl
