// Capability-annotated mutex wrappers — every latch in the tree is one of
// these, never a raw std type. Each wrapper carries:
//
//   * the Clang Thread Safety capability attributes, so -Wthread-safety
//     proves GUARDED_BY/REQUIRES discipline at compile time (clang builds;
//     a no-op under GCC — see common/thread_annotations.h);
//   * a LockRank, checked on every acquisition against the thread's
//     held-lock stack in Debug/sanitizer builds (common/lock_hierarchy.h).
//
// Hold locks through the SCOPED_CAPABILITY guards below (MutexLock,
// ReaderLock, WriterLock), not std::lock_guard/std::unique_lock: the std
// guards are invisible to the static analysis. The guards expose
// BasicLockable lock()/unlock() so std::condition_variable_any can wait on
// them directly — rank tracking then stays correct across the wait, because
// the wait releases and reacquires through the wrapper.
#pragma once

#include <mutex>
#include <shared_mutex>

#include "common/lock_hierarchy.h"
#include "common/thread_annotations.h"

namespace noftl {

/// std::mutex with a capability annotation and a rank.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    // Rank-check before blocking: a true inversion must abort with both
    // stack traces, not sit in a deadlock the checker never sees.
    Track();
    mu_.lock();
  }
  void unlock() RELEASE() {
    Untrack();
    mu_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    Track();
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  void Track() {
#if NOFTL_LOCK_HIERARCHY_CHECKS
    lockcheck::OnAcquire(rank_, this);
#endif
  }
  void Untrack() {
#if NOFTL_LOCK_HIERARCHY_CHECKS
    lockcheck::OnRelease(this);
#endif
  }

  std::mutex mu_;
  const LockRank rank_;
};

/// std::shared_mutex with a capability annotation and a rank. Shared and
/// exclusive holds rank identically in the hierarchy.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    Track();
    mu_.lock();
  }
  void unlock() RELEASE() {
    Untrack();
    mu_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
    Track();
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    Untrack();
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }

 private:
  void Track() {
#if NOFTL_LOCK_HIERARCHY_CHECKS
    lockcheck::OnAcquire(rank_, this);
#endif
  }
  void Untrack() {
#if NOFTL_LOCK_HIERARCHY_CHECKS
    lockcheck::OnRelease(this);
#endif
  }

  std::shared_mutex mu_;
  const LockRank rank_;
};

/// RAII exclusive hold of a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() {
    if (owned_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// BasicLockable window (condition_variable_any, manual I/O gaps).
  void unlock() RELEASE() {
    mu_.unlock();
    owned_ = false;
  }
  void lock() ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }

 private:
  Mutex& mu_;
  bool owned_ = true;
};

/// RAII shared hold of a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() RELEASE() {
    if (owned_) mu_.unlock_shared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  /// BasicLockable surface for condition_variable_any: the wait releases
  /// and reacquires the SHARED hold through the wrapper.
  void unlock() RELEASE() {
    mu_.unlock_shared();
    owned_ = false;
  }
  void lock() ACQUIRE_SHARED() {
    mu_.lock_shared();
    owned_ = true;
  }

 private:
  SharedMutex& mu_;
  bool owned_ = true;
};

/// RAII exclusive hold of a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterLock() RELEASE() {
    if (owned_) mu_.unlock();
  }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  /// BasicLockable window (condition_variable_any, manual I/O gaps).
  void unlock() RELEASE() {
    mu_.unlock();
    owned_ = false;
  }
  void lock() ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }

 private:
  SharedMutex& mu_;
  bool owned_ = true;
};

}  // namespace noftl
