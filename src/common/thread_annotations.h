// Clang Thread Safety Analysis attribute macros.
//
// These expand to Clang's `capability` attribute family when compiling with
// a compiler that supports them (clang with -Wthread-safety) and to nothing
// everywhere else (GCC builds the same tree unannotated). The vocabulary is
// the standard one from the Clang documentation, kept verbatim so a reader
// can map any diagnostic back to
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html:
//
//   CAPABILITY(x)        — the class is a capability (a lock)
//   SCOPED_CAPABILITY    — the class is an RAII guard acquiring on ctor
//   GUARDED_BY(mu)       — reads need mu held (shared), writes exclusive
//   PT_GUARDED_BY(mu)    — the pointee (not the pointer) needs mu
//   ACQUIRE / RELEASE    — the function takes / drops the capability
//   REQUIRES(mu)         — the caller must already hold mu exclusively
//   REQUIRES_SHARED(mu)  — a shared hold suffices
//   EXCLUDES(mu)         — the caller must NOT hold mu
//   NO_THREAD_SAFETY_ANALYSIS — opt a function out (documented escape hatch)
//
// Conventions in this tree:
//   * Locks are the annotated wrappers in common/annotated_mutex.h, never
//     raw std types — the wrappers also carry the runtime LockRank.
//   * Hold locks through the SCOPED_CAPABILITY guards (MutexLock,
//     ReaderLock, WriterLock), never std::lock_guard/std::unique_lock: the
//     std guards are invisible to the analysis, so REQUIRES checks on
//     private helpers would all fail under them.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NOFTL_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NOFTL_THREAD_ANNOTATION
#define NOFTL_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define CAPABILITY(x) NOFTL_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY NOFTL_THREAD_ANNOTATION(scoped_lockable)

#define GUARDED_BY(x) NOFTL_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) NOFTL_THREAD_ANNOTATION(pt_guarded_by(x))

#define ACQUIRE(...) NOFTL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  NOFTL_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) NOFTL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  NOFTL_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  NOFTL_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

#define REQUIRES(...) NOFTL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  NOFTL_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) NOFTL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  NOFTL_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  NOFTL_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) NOFTL_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  NOFTL_THREAD_ANNOTATION(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) NOFTL_THREAD_ANNOTATION(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  NOFTL_THREAD_ANNOTATION(no_thread_safety_analysis)
