#include "flash/device.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace noftl::flash {

FlashDevice::FlashDevice(const FlashGeometry& geometry, const FlashTiming& timing)
    : geometry_(geometry), timing_(timing) {
  assert(geometry_.Validate().ok());
  dies_.resize(geometry_.total_dies());
  for (auto& die : dies_) {
    die.blocks.resize(geometry_.blocks_per_die);
    for (auto& block : die.blocks) {
      block.meta.resize(geometry_.pages_per_block);
      block.state.resize(geometry_.pages_per_block, PageState::kErased);
      block.unreadable.resize(geometry_.pages_per_block, 0);
    }
  }
  channels_.resize(geometry_.channels);
}

void FlashDevice::SetFaults(const FaultOptions& faults) {
  MutexLock lock(mu_);
  faults_ = faults;
  die_fault_rng_.assign(geometry_.total_dies(), 0);
  for (DieId die = 0; die < geometry_.total_dies(); die++) {
    // splitmix-style per-die derivation, like the driver's per-terminal
    // streams: distinct dies get decorrelated streams from one seed.
    uint64_t z = faults.seed + 0x9E3779B97F4A7C15ull * (die + 1);
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    die_fault_rng_[die] = z | 1;
  }
}

bool FlashDevice::InjectFault(DieId die, double rate) {
  if (rate <= 0.0) return false;
  // xorshift64* over the die's own stream.
  uint64_t& s = die_fault_rng_[die];
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  const uint64_t v = s * 2685821657736338717ull;
  return static_cast<double>(v >> 11) * (1.0 / 9007199254740992.0) < rate;
}

bool FlashDevice::CrashPointHit() {
  if (!crash_armed_) return false;
  if (!crashed_ && mutation_seq_ < crash_after_mutations_) return false;
  crashed_ = true;
  return true;
}

Status FlashDevice::CheckAddr(const PhysAddr& addr) const {
  if (!geometry_.Contains(addr)) {
    return Status::OutOfRange("physical address out of range");
  }
  return Status::OK();
}

SimTime FlashDevice::BookDie(DieId die, SimTime ready, SimTime duration) {
  Die& d = dies_[die];
  const Timeline::Fit fit = d.timeline.EarliestFit(ready, duration);
  d.timeline.Reserve(fit, duration);
  d.busy_time += duration;
  return fit.start;
}

SimTime FlashDevice::BookDieAndChannel(DieId die, SimTime ready,
                                       SimTime duration, SimTime xfer_offset) {
  Die& d = dies_[die];
  Timeline& ch = channels_[geometry_.channel_of(die)];
  const SimTime xfer = timing_.transfer_us;
  // Alternate between the two timelines: each step moves `start` to the
  // earliest time one of them allows, never past any time both allow, so
  // the first start both accept is the earliest. Past both ends every
  // start fits, so the walk ends.
  Timeline::Fit on_die = d.timeline.EarliestFit(ready, duration);
  Timeline::Fit on_ch = ch.EarliestFit(on_die.start + xfer_offset, xfer);
  while (on_ch.start != on_die.start + xfer_offset) {
    on_die = d.timeline.EarliestFit(on_ch.start - xfer_offset, duration);
    on_ch = ch.EarliestFit(on_die.start + xfer_offset, xfer);
  }
  d.timeline.Reserve(on_die, duration);
  ch.Reserve(on_ch, xfer);
  d.busy_time += duration;
  return on_die.start;
}

OpResult FlashDevice::ReadPage(const PhysAddr& addr, SimTime issue,
                               OpOrigin origin, char* data, PageMetadata* meta) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  return ReadPageLocked(addr, issue, origin, data, meta);
}

OpResult FlashDevice::ReadPageLocked(const PhysAddr& addr, SimTime issue,
                                     OpOrigin origin, char* data,
                                     PageMetadata* meta) {
  OpResult r;
  r.status = CheckAddr(addr);
  if (!r.status.ok()) return r;

  // The die holds the array read and the transfer; the channel carries the
  // transfer. The array read starts once the page's program (or, for an
  // erased page, its block's erase) is done.
  Block& block = BlockAt(addr.die, addr.block);
  const SimTime ready = ReadyToRead(block, addr.page, issue);
  const SimTime duration = timing_.read_us + timing_.transfer_us;
  r.start = BookDieAndChannel(addr.die, ready, duration, timing_.read_us);
  r.complete = r.start + duration;
  block.booked_until = std::max(block.booked_until, r.complete);
  block.read_count++;

  // Read faults. The die/channel time is already charged — a failed read
  // costs exactly what a successful one does. Hard failures poison the page
  // until its block is erased; transient ones fail only this attempt. Past
  // the read-disturb limit the block reports `disturbed` on every read
  // (success or failure) so the layer above can relocate its data.
  bool hard = block.unreadable[addr.page] != 0;
  if (!hard && InjectFault(addr.die, faults_.read_hard_rate)) {
    block.unreadable[addr.page] = 1;
    hard = true;
  }
  if (hard) {
    read_failures_hard_++;
    r.status = Status::IOError("hard read failure (injected)");
    return r;
  }
  if (faults_.read_disturb_limit > 0 &&
      block.read_count > faults_.read_disturb_limit) {
    r.disturbed = true;
    if (InjectFault(addr.die, faults_.read_disturb_rate)) {
      read_failures_transient_++;
      r.transient = true;
      r.status = Status::IOError("read-disturb failure (injected)");
      return r;
    }
  }
  if (InjectFault(addr.die, faults_.read_transient_rate)) {
    read_failures_transient_++;
    r.transient = true;
    r.status = Status::IOError("transient read failure (injected)");
    return r;
  }

  if (data != nullptr) {
    if (block.data != nullptr &&
        block.state[addr.page] == PageState::kProgrammed) {
      memcpy(data, block.data.get() +
                       static_cast<size_t>(addr.page) * geometry_.page_size,
             geometry_.page_size);
    } else {
      // Erased (or payload-free) pages read back as all ones, like real NAND.
      memset(data, 0xFF, geometry_.page_size);
    }
  }
  if (meta != nullptr) {
    *meta = block.state[addr.page] == PageState::kProgrammed
                ? block.meta[addr.page]
                : PageMetadata{};
  }

  stats_.reads[static_cast<int>(origin)]++;
  if (origin == OpOrigin::kHost) {
    stats_.host_read_latency_us.Record(r.complete - issue);
  }
  return r;
}

void FlashDevice::ReadPages(const PageReadOp* ops, size_t count, SimTime issue,
                            OpOrigin origin, OpResult* results) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  for (size_t i = 0; i < count; i++) {
    results[i] =
        ReadPageLocked(ops[i].addr, issue, origin, ops[i].data, ops[i].meta);
  }
}

void FlashDevice::ProgramPages(const PageProgramOp* ops, size_t count,
                               SimTime issue, OpOrigin origin,
                               OpResult* results) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  for (size_t i = 0; i < count; i++) {
    results[i] =
        ProgramPageLocked(ops[i].addr, issue, origin, ops[i].data, ops[i].meta);
  }
}

Ticket FlashDevice::SubmitRead(const PageReadOp& op, SimTime issue,
                               OpOrigin origin) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  // The die accepts the op now: the schedule (start, completion) and the
  // data capture are fixed at submission, but the result sits on the
  // completion queue until reaped.
  const OpResult r = ReadPageLocked(op.addr, issue, origin, op.data, op.meta);
  return Enqueue(r, op.addr.die, origin);
}

Ticket FlashDevice::Enqueue(const OpResult& result, DieId die,
                            OpOrigin origin) {
  const Ticket t = next_ticket_++;
  cq_.emplace(t, CqEntry{result, die, origin});
  if (origin == OpOrigin::kHost) dies_[die].pending_host++;
  return t;
}

Result<OpResult> FlashDevice::WaitFor(Ticket ticket) {
  MutexLock lock(mu_);
  auto it = cq_.find(ticket);
  if (it == cq_.end()) {
    return Status::InvalidArgument("unknown or already-reaped ticket");
  }
  OpResult r = it->second.result;
  if (it->second.origin == OpOrigin::kHost) {
    dies_[it->second.die].pending_host--;
  }
  cq_.erase(it);
  return r;
}

OpResult FlashDevice::ReadOob(const PhysAddr& addr, SimTime issue,
                              OpOrigin origin, PageMetadata* meta) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  OpResult r;
  r.status = CheckAddr(addr);
  if (!r.status.ok()) return r;

  // Array read only: the spare area is a few dozen bytes, so no channel
  // transfer is modelled. Streams on distinct dies therefore overlap fully.
  Block& block = BlockAt(addr.die, addr.block);
  r.start = BookDie(addr.die, ReadyToRead(block, addr.page, issue),
                    timing_.read_us);
  r.complete = r.start + timing_.read_us;
  block.booked_until = std::max(block.booked_until, r.complete);

  if (meta != nullptr) {
    *meta = block.state[addr.page] == PageState::kProgrammed
                ? block.meta[addr.page]
                : PageMetadata{};
  }
  stats_.reads[static_cast<int>(origin)]++;
  return r;
}

OpResult FlashDevice::ProgramPage(const PhysAddr& addr, SimTime issue,
                                  OpOrigin origin, const char* data,
                                  const PageMetadata& meta) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  return ProgramPageLocked(addr, issue, origin, data, meta);
}

OpResult FlashDevice::ProgramPageLocked(const PhysAddr& addr, SimTime issue,
                                        OpOrigin origin, const char* data,
                                        const PageMetadata& meta) {
  OpResult r;
  r.status = CheckAddr(addr);
  if (!r.status.ok()) return r;

  Block& block = BlockAt(addr.die, addr.block);
  if (block.state[addr.page] == PageState::kProgrammed) {
    r.status = Status::Corruption("program of already-programmed page");
    return r;
  }
  if (addr.page != block.next_program) {
    r.status = Status::InvalidArgument(
        "non-sequential program within block (NAND constraint)");
    return r;
  }
  if (CrashPointHit()) {
    r.status = Status::IOError("crash injected before program");
    return r;
  }

  // Channel transfer first (host -> page register), then the array
  // program; the die is held for both. Pages of a block program in order,
  // after the block's erase.
  const SimTime duration = timing_.transfer_us + timing_.program_us;
  r.start = BookDieAndChannel(addr.die, std::max(issue, block.written_until),
                              duration, 0);
  r.complete = r.start + duration;
  WrittenAt(block)[addr.page] = r.complete;
  block.written_until = r.complete;
  block.booked_until = std::max(block.booked_until, r.complete);

  block.mutation_seq = ++mutation_seq_;
  if (InjectFault(addr.die, faults_.program_failure_rate)) {
    // The page is burned: its cells are no longer erased, but the data did
    // not stick. The block cursor advances; callers retire the block.
    block.state[addr.page] = PageState::kProgrammed;
    block.meta[addr.page] = PageMetadata{};
    block.next_program = addr.page + 1;
    program_failures_++;
    r.status = Status::IOError("program failure (injected)");
    return r;
  }

  if (data != nullptr) {
    if (block.data == nullptr) {
      const size_t bytes =
          static_cast<size_t>(geometry_.pages_per_block) * geometry_.page_size;
      block.data = std::make_unique<char[]>(bytes);
      memset(block.data.get(), 0xFF, bytes);
    }
    memcpy(block.data.get() +
               static_cast<size_t>(addr.page) * geometry_.page_size,
           data, geometry_.page_size);
  }
  block.meta[addr.page] = meta;
  block.state[addr.page] = PageState::kProgrammed;
  block.next_program = addr.page + 1;

  stats_.programs[static_cast<int>(origin)]++;
  if (origin == OpOrigin::kHost) {
    stats_.host_write_latency_us.Record(r.complete - issue);
  }
  return r;
}

OpResult FlashDevice::EraseBlock(DieId die_id, BlockId block_id, SimTime issue,
                                 OpOrigin origin) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  OpResult r;
  r.status = CheckAddr({die_id, block_id, 0});
  if (!r.status.ok()) return r;

  Block& block = BlockAt(die_id, block_id);
  if (block.erase_count >= geometry_.erase_endurance) {
    r.status = Status::WornOut("block exceeded erase endurance");
    return r;
  }
  if (CrashPointHit()) {
    r.status = Status::IOError("crash injected before erase");
    return r;
  }

  // Not before anything already booked on the block (reads of its pages,
  // copybacks out of it) has finished.
  r.start = BookDie(die_id, std::max(issue, block.booked_until),
                    timing_.erase_us);
  r.complete = r.start + timing_.erase_us;
  block.booked_until = r.complete;

  block.mutation_seq = ++mutation_seq_;
  if (InjectFault(die_id, faults_.erase_failure_rate)) {
    erase_failures_++;
    block.erase_count++;  // the failed cycle still wears the block
    r.status = Status::IOError("erase failure (injected)");
    return r;
  }

  block.erase_count++;
  block.written_until = r.complete;
  block.next_program = 0;
  block.read_count = 0;
  block.data.reset();
  std::fill(block.state.begin(), block.state.end(), PageState::kErased);
  std::fill(block.meta.begin(), block.meta.end(), PageMetadata{});
  std::fill(block.unreadable.begin(), block.unreadable.end(), uint8_t{0});
  std::fill_n(WrittenAt(block), geometry_.pages_per_block, r.complete);

  stats_.erases[static_cast<int>(origin)]++;
  return r;
}

OpResult FlashDevice::Copyback(DieId die_id, BlockId src_block, PageId src_page,
                               BlockId dst_block, PageId dst_page,
                               SimTime issue, OpOrigin origin,
                               const PageMetadata* new_meta) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  OpResult r;
  r.status = CheckAddr({die_id, src_block, src_page});
  if (!r.status.ok()) return r;
  r.status = CheckAddr({die_id, dst_block, dst_page});
  if (!r.status.ok()) return r;

  Block& src = BlockAt(die_id, src_block);
  Block& dst = BlockAt(die_id, dst_block);
  if (src.state[src_page] != PageState::kProgrammed) {
    r.status = Status::InvalidArgument("copyback source not programmed");
    return r;
  }
  if (dst.state[dst_page] == PageState::kProgrammed) {
    r.status = Status::Corruption("copyback destination already programmed");
    return r;
  }
  if (dst_page != dst.next_program) {
    r.status = Status::InvalidArgument(
        "non-sequential copyback destination (NAND constraint)");
    return r;
  }
  if (CrashPointHit()) {
    r.status = Status::IOError("crash injected before copyback");
    return r;
  }

  // Entirely in-die: no channel occupancy. This is why GC relocation is
  // cheaper than a host read+write of the same page. Ready once the source
  // page is programmed and the destination is next in its block.
  const SimTime ready = std::max(
      {ReadyToRead(src, src_page, issue), dst.written_until});
  r.start = BookDie(die_id, ready, timing_.copyback_us);
  r.complete = r.start + timing_.copyback_us;
  WrittenAt(dst)[dst_page] = r.complete;
  dst.written_until = r.complete;
  src.booked_until = std::max(src.booked_until, r.complete);
  dst.booked_until = std::max(dst.booked_until, r.complete);

  dst.mutation_seq = ++mutation_seq_;
  if (InjectFault(die_id, faults_.program_failure_rate)) {
    dst.state[dst_page] = PageState::kProgrammed;
    dst.meta[dst_page] = PageMetadata{};
    dst.next_program = dst_page + 1;
    program_failures_++;
    r.status = Status::IOError("copyback program failure (injected)");
    return r;
  }

  if (src.data != nullptr) {
    if (dst.data == nullptr) {
      const size_t bytes =
          static_cast<size_t>(geometry_.pages_per_block) * geometry_.page_size;
      dst.data = std::make_unique<char[]>(bytes);
      memset(dst.data.get(), 0xFF, bytes);
    }
    memcpy(dst.data.get() + static_cast<size_t>(dst_page) * geometry_.page_size,
           src.data.get() + static_cast<size_t>(src_page) * geometry_.page_size,
           geometry_.page_size);
  }
  dst.meta[dst_page] = new_meta != nullptr ? *new_meta : src.meta[src_page];
  dst.state[dst_page] = PageState::kProgrammed;
  // An uncorrectable source stays uncorrectable: copyback moves the raw
  // cells without ECC recovery, so the hard-failure mark travels with them.
  dst.unreadable[dst_page] = src.unreadable[src_page];
  dst.next_program = dst_page + 1;

  stats_.copybacks[static_cast<int>(origin)]++;
  return r;
}

PageState FlashDevice::GetPageState(const PhysAddr& addr) const {
  MutexLock lock(mu_);
  assert(geometry_.Contains(addr));
  return BlockAt(addr.die, addr.block).state[addr.page];
}

PageMetadata FlashDevice::PeekMetadata(const PhysAddr& addr) const {
  MutexLock lock(mu_);
  assert(geometry_.Contains(addr));
  const Block& b = BlockAt(addr.die, addr.block);
  return b.state[addr.page] == PageState::kProgrammed ? b.meta[addr.page]
                                                      : PageMetadata{};
}

const PageMetadata* FlashDevice::PeekBlockMetadata(DieId die,
                                                   BlockId block) const {
  MutexLock lock(mu_);
  return BlockAt(die, block).meta.data();
}

uint32_t FlashDevice::EraseCount(DieId die, BlockId block) const {
  MutexLock lock(mu_);
  return BlockAt(die, block).erase_count;
}

PageId FlashDevice::NextProgramPage(DieId die, BlockId block) const {
  MutexLock lock(mu_);
  return BlockAt(die, block).next_program;
}

uint64_t FlashDevice::BlockMutationSeq(DieId die, BlockId block) const {
  MutexLock lock(mu_);
  return BlockAt(die, block).mutation_seq;
}

uint64_t FlashDevice::BlockReadCount(DieId die, BlockId block) const {
  MutexLock lock(mu_);
  return BlockAt(die, block).read_count;
}

void FlashDevice::WearSummary(uint32_t* min_erases, uint32_t* max_erases,
                              double* avg_erases) const {
  MutexLock lock(mu_);
  uint32_t lo = ~0u;
  uint32_t hi = 0;
  uint64_t sum = 0;
  uint64_t n = 0;
  for (const auto& die : dies_) {
    for (const auto& block : die.blocks) {
      lo = std::min(lo, block.erase_count);
      hi = std::max(hi, block.erase_count);
      sum += block.erase_count;
      n++;
    }
  }
  if (min_erases != nullptr) *min_erases = n ? lo : 0;
  if (max_erases != nullptr) *max_erases = hi;
  if (avg_erases != nullptr) {
    *avg_erases = n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  }
}

}  // namespace noftl::flash
