// Lightweight atomic counters for stats structs shared across threads.
//
// The stack's statistics (`MapperStats`, `BufferStats`, `FlashStats`, the
// sharded-space counters, device fault counters) started life as plain
// `uint64_t` fields mutated on a single thread. Under real worker threads
// those increments become data races — harmless-looking but undefined
// behaviour, and hard TSan failures. `Relaxed<T>` is the drop-in
// replacement:
//
//   * increments (`++`, `+=`, `fetch_add`) use relaxed ordering — counters
//     only need atomicity, never ordering, so the hot paths pay one lock-free
//     RMW and nothing else;
//   * reads default to acquire and writes to release, so a value that
//     doubles as a flag publishes the fields written before it;
//   * unlike `std::atomic`, it is *copyable* (copy == snapshot load), so the
//     stats structs stay aggregates: `MapperStats s = mapper->stats();`
//     still works and takes a consistent-enough point-in-time snapshot of
//     each field.
//
// Implicit conversion to `T` keeps every existing read site
// (`stats.host_reads`, `EXPECT_EQ(a.gc_runs, b.gc_runs)`, arithmetic)
// compiling unchanged. Sites that pass a counter through varargs
// (printf-family) must cast explicitly — the wrapper is not trivially
// copyable — which the compiler enforces.
#pragma once

#include <atomic>
#include <cstdint>

namespace noftl {

template <typename T>
class Relaxed {
 public:
  constexpr Relaxed() noexcept : v_(T{}) {}
  constexpr Relaxed(T v) noexcept : v_(v) {}  // NOLINT: implicit by design
  Relaxed(const Relaxed& o) noexcept : v_(o.load()) {}
  Relaxed& operator=(const Relaxed& o) noexcept {
    store(o.load());
    return *this;
  }
  Relaxed& operator=(T v) noexcept {
    store(v);
    return *this;
  }

  /// Snapshot of the current value (acquire: pairs with `store`'s release so
  /// a flag read publishes everything written before the flag was set).
  T load(std::memory_order mo = std::memory_order_acquire) const noexcept {
    return v_.load(mo);
  }
  T snapshot() const noexcept { return load(); }
  void store(T v, std::memory_order mo = std::memory_order_release) noexcept {
    v_.store(v, mo);
  }
  operator T() const noexcept { return load(); }  // NOLINT: implicit by design

  T fetch_add(T d, std::memory_order mo = std::memory_order_relaxed) noexcept {
    return v_.fetch_add(d, mo);
  }
  T fetch_sub(T d, std::memory_order mo = std::memory_order_relaxed) noexcept {
    return v_.fetch_sub(d, mo);
  }
  /// `old.exchange(v)`: atomically replace, returning the previous value
  /// (dirty-flag transitions use this to count 0->1 edges exactly once).
  T exchange(T v, std::memory_order mo = std::memory_order_acq_rel) noexcept {
    return v_.exchange(v, mo);
  }

  Relaxed& operator++() noexcept {
    fetch_add(T{1});
    return *this;
  }
  T operator++(int) noexcept { return fetch_add(T{1}); }
  Relaxed& operator--() noexcept {
    fetch_sub(T{1});
    return *this;
  }
  T operator--(int) noexcept { return fetch_sub(T{1}); }
  Relaxed& operator+=(T d) noexcept {
    fetch_add(d);
    return *this;
  }
  Relaxed& operator-=(T d) noexcept {
    fetch_sub(d);
    return *this;
  }

 private:
  std::atomic<T> v_;
};

/// The common case: a monotonically growing event counter.
using RelaxedCounter = Relaxed<uint64_t>;

}  // namespace noftl
