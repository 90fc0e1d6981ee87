// Clang thread-safety annotations (C1, DESIGN.md §10).
//
// The scan epochs run on real host threads (sim::WorkerPool); TSan only
// catches the races a given seed happens to execute. These macros map onto clang's `-Wthread-safety`
// attributes so the lock discipline is checked at compile time on the clang
// CI lane, and expand to nothing under gcc (which has no equivalent). The
// companion concord-lint rule D5 requires every mutex-adjacent member in
// src/sim and src/obs to carry one of these annotations or a justified
// `// concord-lint: unguarded(<reason>)`.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability attributes,
// so annotating raw std::mutex members buys nothing: clang cannot see the
// acquisition. Instead, lockable state uses the annotated wrappers below —
// `Mutex` (a capability) and `MutexLock` (a scoped capability holding a
// std::unique_lock so condition variables still work via native()).
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CONCORD_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CONCORD_THREAD_ANNOTATION
#define CONCORD_THREAD_ANNOTATION(x)  // no-op under gcc / old clang
#endif

/// Marks a type as a lockable capability ("mutex" names the capability kind
/// in diagnostics).
#define CONCORD_CAPABILITY(x) CONCORD_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type that acquires on construction, releases on destruction.
#define CONCORD_SCOPED_CAPABILITY CONCORD_THREAD_ANNOTATION(scoped_lockable)
/// Member data readable/writable only while `x` is held.
#define CONCORD_GUARDED_BY(x) CONCORD_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by `x`.
#define CONCORD_PT_GUARDED_BY(x) CONCORD_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function that must be called with the capabilities held.
#define CONCORD_REQUIRES(...) \
  CONCORD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the capabilities and returns holding them.
#define CONCORD_ACQUIRE(...) \
  CONCORD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases the capabilities.
#define CONCORD_RELEASE(...) \
  CONCORD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that acquires the capability iff it returns `ret`.
#define CONCORD_TRY_ACQUIRE(ret, ...) \
  CONCORD_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))
/// Function that must be called with the capabilities NOT held.
#define CONCORD_EXCLUDES(...) \
  CONCORD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Returns the capability guarding the returned reference.
#define CONCORD_RETURN_CAPABILITY(x) \
  CONCORD_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch for functions the analysis cannot model; pair with a comment.
#define CONCORD_NO_THREAD_SAFETY_ANALYSIS \
  CONCORD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace concord::common {

/// std::mutex with capability attributes, so CONCORD_GUARDED_BY(mu_) members
/// are actually enforced on the clang lane. Use through MutexLock; native()
/// exists for APIs that need the raw mutex (condition variables).
class CONCORD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CONCORD_ACQUIRE() { mu_.lock(); }
  void unlock() CONCORD_RELEASE() { mu_.unlock(); }
  bool try_lock() CONCORD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The underlying std::mutex, for std::condition_variable waits. Callers
  /// must not lock/unlock it directly — the analysis would not see it.
  [[nodiscard]] std::mutex& native() noexcept { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over a Mutex. Holds a std::unique_lock internally so
/// condition_variable::wait(lock.native()) works while the analysis still
/// sees the capability as held for the whole scope.
class CONCORD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CONCORD_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() CONCORD_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The underlying unique_lock, for condition_variable waits only. The wait
  /// re-acquires before returning, so the capability stays held from the
  /// analysis's point of view.
  [[nodiscard]] std::unique_lock<std::mutex>& native() noexcept { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace concord::common
