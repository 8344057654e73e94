// Outside-in tracing for noftl_bench.
//
// The benchmark observes the storage stack without editing it: after the
// TPC-C load it wraps every tablespace in a TracedPageIo and registers the
// wrapper with the public BufferPool::RegisterTablespace, so every page I/O
// the pool issues crosses the wrapper on its way to the real tablespace. The
// wrapper forwards each call unchanged and records one span per call: name,
// wall start/end, parent span, thread, pages and the simulated issue and
// completion times. Simulated behaviour is untouched — the wrapper adds no
// simulated time and changes no argument.
//
// Each round of the benchmark owns one Tracer. Spans stay in memory:
// per-thread stores (no lock on the recording path)
// keep, per span name, a count, page and wall-time sums, histograms of wall
// time and simulated latency, and a strided raw sample capped at
// kSampleCap spans. Tracer::WriteJson merges them at exit.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/histogram.h"

namespace noftl::benchmark {

enum class SpanName : uint8_t {
  kDbLoad = 0,
  kTpccRun,
  kRead,
  kWrite,
  kSubmitReads,
  kSubmitWrites,
  kWait,
};
inline constexpr int kNumSpanNames = 7;

inline const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kDbLoad: return "db.load";
    case SpanName::kTpccRun: return "tpcc.run";
    case SpanName::kRead: return "storage.read";
    case SpanName::kWrite: return "storage.write";
    case SpanName::kSubmitReads: return "storage.submit_reads";
    case SpanName::kSubmitWrites: return "storage.submit_writes";
    case SpanName::kWait: return "storage.wait";
  }
  return "?";
}

inline bool IsStorageSpan(SpanName n) {
  return n != SpanName::kDbLoad && n != SpanName::kTpccRun;
}

inline int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  SpanName name = SpanName::kRead;
  uint32_t thread = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t pages = 0;
  SimTime sim_issue = 0;
  SimTime sim_complete = 0;  ///< 0 for a submit: it completes at its wait
};

/// Aggregates of one span name.
struct SpanAggregate {
  uint64_t count = 0;
  uint64_t pages = 0;
  uint64_t wall_ns = 0;
  Histogram wall_ns_hist;
  /// Simulated issue -> completion of each I/O call: a synchronous read or
  /// write, or a submit/wait pair (recorded on the wait).
  Histogram sim_us_hist;

  void Merge(const SpanAggregate& o) {
    count += o.count;
    pages += o.pages;
    wall_ns += o.wall_ns;
    wall_ns_hist.Merge(o.wall_ns_hist);
    sim_us_hist.Merge(o.sim_us_hist);
  }
};

class Tracer {
 public:
  static constexpr size_t kSampleCap = 1024;  ///< raw spans per name per thread
  static constexpr uint64_t kSampleStride = 64;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Span that storage spans recorded from now on name as their parent.
  void SetParent(uint64_t span_id) { parent_.store(span_id); }
  uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }

  /// Fresh span id (unique across threads).
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a finished span into the calling thread's store.
  void Record(const Span& span_in, bool has_sim_latency) {
    ThreadStore& ts = Local();
    Span span = span_in;
    span.thread = ts.thread;
    SpanAggregate& agg = ts.agg[static_cast<int>(span.name)];
    const auto wall = static_cast<uint64_t>(span.end_ns - span.start_ns);
    agg.count++;
    agg.pages += span.pages;
    agg.wall_ns += wall;
    agg.wall_ns_hist.Record(wall);
    if (has_sim_latency) {
      agg.sim_us_hist.Record(span.sim_complete - span.sim_issue);
    }
    auto& sample = ts.sample[static_cast<int>(span.name)];
    if (agg.count % kSampleStride == 1 && sample.size() < kSampleCap) {
      sample.push_back(span);
    }
  }

  /// Aggregates over every thread. Call only once recording threads are
  /// joined (TpccDriver joins its workers before Run returns).
  std::array<SpanAggregate, kNumSpanNames> Totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::array<SpanAggregate, kNumSpanNames> out;
    for (const auto& ts : stores_) {
      for (int i = 0; i < kNumSpanNames; i++) out[i].Merge(ts->agg[i]);
    }
    return out;
  }

  /// Write every aggregate and the raw samples as one JSON document.
  bool WriteJson(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto totals = Totals();
    fprintf(f, "{\"aggregates\": {");
    for (int i = 0; i < kNumSpanNames; i++) {
      const SpanAggregate& a = totals[i];
      fprintf(f,
              "%s\"%s\": {\"count\": %llu, \"pages\": %llu, \"wall_ns\": %llu, "
              "\"wall_ns_p50\": %.1f, \"wall_ns_p99\": %.1f, "
              "\"sim_us_p50\": %.1f, \"sim_us_p99\": %.1f}",
              i == 0 ? "" : ", ", SpanNameString(static_cast<SpanName>(i)),
              static_cast<unsigned long long>(a.count),
              static_cast<unsigned long long>(a.pages),
              static_cast<unsigned long long>(a.wall_ns),
              a.wall_ns_hist.Percentile(50), a.wall_ns_hist.Percentile(99),
              a.sim_us_hist.Percentile(50), a.sim_us_hist.Percentile(99));
    }
    fprintf(f, "}, \"spans\": [");
    bool first = true;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ts : stores_) {
      for (const auto& sample : ts->sample) {
        for (const Span& s : sample) {
          fprintf(f,
                  "%s\n{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"thread\": %u, \"start_ns\": %lld, \"end_ns\": %lld, "
                  "\"pages\": %u, \"sim_issue_us\": %llu, "
                  "\"sim_complete_us\": %llu}",
                  first ? "" : ",", SpanNameString(s.name),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.thread,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.pages,
                  static_cast<unsigned long long>(s.sim_issue),
                  static_cast<unsigned long long>(s.sim_complete));
          first = false;
        }
      }
    }
    fprintf(f, "\n]}\n");
    return fclose(f) == 0;
  }

 private:
  struct ThreadStore {
    uint32_t thread = 0;
    std::array<SpanAggregate, kNumSpanNames> agg;
    std::array<std::vector<Span>, kNumSpanNames> sample;
  };

  /// The calling thread's store, created on its first span. The per-thread
  /// cache is keyed by tracer id, not address: a round's tracer may reuse
  /// the stack slot of the previous round's.
  ThreadStore& Local() {
    thread_local uint64_t owner = 0;
    thread_local ThreadStore* local = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      stores_.push_back(std::make_unique<ThreadStore>());
      local = stores_.back().get();
      local->thread = static_cast<uint32_t>(stores_.size() - 1);
      owner = id_;
    }
    return *local;
  }

  static uint64_t NextTracerId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t id_ = NextTracerId();
  mutable std::mutex mu_;  ///< guards stores_ (not the stores' contents)
  std::vector<std::unique_ptr<ThreadStore>> stores_;
  std::atomic<uint64_t> parent_{0};
  std::atomic<uint64_t> next_id_{1};
};

/// PageIo interposer: forwards every call to the wrapped tablespace and
/// records one span per call.
class TracedPageIo : public buffer::PageIo {
 public:
  TracedPageIo(buffer::PageIo* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  uint32_t tablespace_id() const override { return inner_->tablespace_id(); }
  uint32_t page_size() const override { return inner_->page_size(); }

  Status ReadPageRaw(uint64_t page_no, SimTime issue, char* data,
                     SimTime* complete, uint64_t read_seq) override {
    Span span = Begin(SpanName::kRead, 1, issue);
    SimTime done = issue;
    Status s = inner_->ReadPageRaw(page_no, issue, data, &done, read_seq);
    if (complete != nullptr) *complete = done;
    End(&span, done, s.ok());
    return s;
  }

  Status WritePageRaw(uint64_t page_no, SimTime issue, const char* data,
                      SimTime* complete) override {
    Span span = Begin(SpanName::kWrite, 1, issue);
    SimTime done = issue;
    Status s = inner_->WritePageRaw(page_no, issue, data, &done);
    if (complete != nullptr) *complete = done;
    End(&span, done, s.ok());
    return s;
  }

  Status SubmitReads(buffer::PageReadReq* reqs, size_t count, SimTime issue,
                     buffer::PageIoTicket* ticket) override {
    return Submit(SpanName::kSubmitReads, count, issue, ticket, [&] {
      return inner_->SubmitReads(reqs, count, issue, ticket);
    });
  }

  Status SubmitWrites(buffer::PageWriteReq* reqs, size_t count, SimTime issue,
                      buffer::PageIoTicket* ticket) override {
    return Submit(SpanName::kSubmitWrites, count, issue, ticket, [&] {
      return inner_->SubmitWrites(reqs, count, issue, ticket);
    });
  }

  Status WaitBatch(buffer::PageIoTicket ticket, SimTime* complete) override {
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(ticket);
      if (it != pending_.end()) {
        pending = it->second;
        pending_.erase(it);
      }
    }
    Span span = Begin(SpanName::kWait, pending.pages, pending.issue);
    SimTime done = pending.issue;
    Status s = inner_->WaitBatch(ticket, &done);
    if (complete != nullptr) *complete = done;
    // Only a reap of a known submission has a simulated issue time.
    End(&span, done, s.ok() && pending.pages != 0);
    return s;
  }

 private:
  struct Pending {
    SimTime issue = 0;
    uint32_t pages = 0;
  };

  Span Begin(SpanName name, size_t pages, SimTime issue) {
    Span span;
    span.name = name;
    span.id = tracer_->NextId();
    span.parent = tracer_->parent();
    span.pages = static_cast<uint32_t>(pages);
    span.sim_issue = issue;
    span.start_ns = WallNowNs();
    return span;
  }

  void End(Span* span, SimTime sim_complete, bool has_sim_latency) {
    span->end_ns = WallNowNs();
    span->sim_complete = sim_complete;
    tracer_->Record(*span, has_sim_latency && sim_complete >= span->sim_issue);
  }

  template <typename Fn>
  Status Submit(SpanName name, size_t count, SimTime issue,
                buffer::PageIoTicket* ticket, Fn&& forward) {
    Span span = Begin(name, count, issue);
    Status s = forward();
    span.end_ns = WallNowNs();
    span.sim_complete = 0;
    if (s.ok() && *ticket != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_[*ticket] = Pending{issue, static_cast<uint32_t>(count)};
    }
    tracer_->Record(span, /*has_sim_latency=*/false);
    return s;
  }

  buffer::PageIo* inner_;
  Tracer* tracer_;
  /// Submitted, not yet reaped tickets (a reap may run on another worker).
  std::mutex mu_;
  std::unordered_map<buffer::PageIoTicket, Pending> pending_;
};

}  // namespace noftl::benchmark
