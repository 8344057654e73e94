// IoBatch — the submission/completion I/O abstraction of the storage stack.
//
// The paper's core claim is that exposing native flash to the DBMS lets the
// engine exploit the device's internal parallelism. A single synchronous
// page call cannot: a multi-page fetch issued one op at a time serializes on
// the caller's clock even when the pages live on different dies. An IoBatch
// instead carries N reads/writes/trims with *per-request completion slots*;
// the provider enqueues every request at the batch's issue time, the device
// overlaps requests that land on distinct dies (same-die requests are booked
// in submission order on the die's timeline), and the batch completes
// at the max — not the sum — of the per-request completion times.
//
// The surface is event-driven, NVMe-style: SubmitBatch returns an IoTicket
// immediately (the caller's clock does not advance), the requests retire on
// the simulated clock, and the caller reaps by ticket with WaitBatch — the
// one reap path. Whatever the caller computes between submit and reap
// overlaps with the in-flight flash work: the wall time of a
// submit/compute/reap sequence is max(compute, max-over-dies I/O), not the
// sum. RunBatch is the call-and-resolve convenience (submit + wait).
//
// Layering: IoBatch is a plain data carrier with no I/O of its own. Every
// level of the stack accepts one:
//   * ftl::OutOfPlaceMapper::SubmitBatch — translate + vectored enqueue;
//   * region::Region::SubmitBatch / ftl::PageMappingFtl::SubmitBatch;
//   * storage::SpaceProvider::SubmitBatch (the only virtual submission entry
//     point — the single-page calls are one-element RunBatch wrappers);
//   * buffer::BufferPool::SubmitFetch / batched write-back build batches
//     from page misses and dirty frames and reap before returning.
//
// Write batches come in two flavours:
//   * independent (default): each write behaves exactly like a single
//     WritePage issued at the batch time — same die choice, same GC pacing,
//     same OOB metadata — so serial and batched execution are equivalent;
//   * atomic (set_atomic(true), writes only): the batch routes through the
//     mapper's atomic-batch machinery — all pages become visible together
//     or not at all (paper §1, advantage iv).
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"

namespace noftl::storage {

/// Handle of one in-flight batch, scoped to the backend it was submitted to
/// (one mapper = one ticket space). 0 means "nothing in flight".
using IoTicket = uint64_t;

enum class IoOp : uint8_t {
  kRead = 0,
  kWrite = 1,
  kTrim = 2,
};

/// One request of a batch. The submission fields (op, lpn, buffers,
/// object_id, read_seq) are set by the caller; the completion slots
/// (status, complete, done) are filled when the batch is reaped by
/// WaitBatch, not at submit. The request object and its buffers must stay
/// alive (and unmoved) until the batch is reaped.
struct IoRequest {
  IoOp op = IoOp::kRead;
  uint64_t lpn = 0;
  char* read_buf = nullptr;         ///< kRead: receives page_size bytes (may be null)
  const char* write_data = nullptr; ///< kWrite: page payload (may be null)
  uint32_t object_id = 0;           ///< kWrite: owning object (OOB metadata)
  /// kRead: snapshot sequence to resolve the read against (0 = latest).
  /// Nonzero values route through the mapper's retained version chains so
  /// the read observes the page as of the snapshot (see mvcc/).
  uint64_t read_seq = 0;

  // --- Completion slots (valid once done == true) ---
  //
  // Written only by the WaitBatch that reaps the ticket (or by a rejected
  // submission, which delivers them before returning). One thread reaps a
  // ticket; whoever reads the slots afterwards is ordered after that reap by
  // the reaper's return or by the latch that handed the ticket over.
  Status status;
  SimTime complete = 0;
  bool done = false;
};

class IoBatch {
 public:
  IoRequest& AddRead(uint64_t lpn, char* buf) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.lpn = lpn;
    r.read_buf = buf;
    requests_.push_back(r);
    return requests_.back();
  }

  IoRequest& AddWrite(uint64_t lpn, const char* data, uint32_t object_id) {
    IoRequest r;
    r.op = IoOp::kWrite;
    r.lpn = lpn;
    r.write_data = data;
    r.object_id = object_id;
    requests_.push_back(r);
    return requests_.back();
  }

  IoRequest& AddTrim(uint64_t lpn) {
    IoRequest r;
    r.op = IoOp::kTrim;
    r.lpn = lpn;
    requests_.push_back(r);
    return requests_.back();
  }

  /// All-or-nothing installation for an all-write batch (routes through the
  /// mapper's atomic-batch machinery). Submitting an atomic batch containing
  /// non-write requests fails with InvalidArgument.
  void set_atomic(bool atomic) { atomic_ = atomic; }
  bool atomic() const { return atomic_; }

  bool empty() const { return requests_.empty(); }
  size_t size() const { return requests_.size(); }
  std::vector<IoRequest>& requests() { return requests_; }
  const std::vector<IoRequest>& requests() const { return requests_; }
  IoRequest& operator[](size_t i) { return requests_[i]; }
  const IoRequest& operator[](size_t i) const { return requests_[i]; }

  /// Reuse the batch object for the next submission. The previous
  /// submission must have been reaped (the backend holds pointers into the
  /// request vector until then).
  void Clear() {
    requests_.clear();
    atomic_ = false;
  }

  /// Deliver `error` to every request immediately (status and done flag).
  /// This is the rejected-submission contract: a submission that fails
  /// outright yields no ticket, so there is nothing in flight for a reap to
  /// wait on and the slots must resolve now.
  void FailAll(const Status& error) {
    for (IoRequest& r : requests_) {
      r.status = error;
      r.done = true;
    }
  }

  /// True once every request has retired.
  bool AllDone() const {
    for (const auto& r : requests_) {
      if (!r.done) return false;
    }
    return true;
  }

  /// First non-OK per-request status (OK when every request succeeded).
  Status FirstError() const {
    for (const auto& r : requests_) {
      if (!r.status.ok()) return r.status;
    }
    return Status::OK();
  }

  /// Latest per-request completion time (0 for an empty batch).
  SimTime MaxComplete() const {
    SimTime t = 0;
    for (const auto& r : requests_) {
      if (r.status.ok() && r.complete > t) t = r.complete;
    }
    return t;
  }

 private:
  std::vector<IoRequest> requests_;
  bool atomic_ = false;
};

}  // namespace noftl::storage
