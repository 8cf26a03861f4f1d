// Annotated synchronization primitives for Clang's thread-safety
// analysis (-Wthread-safety).
//
// The engine nests parallel loops on one shared pool (cell-group workers
// -> budget sweeps, whose helpers are plain pool tasks joined through a
// per-loop gate) next to a multithreaded HTTP service, and its core
// promise — byte-identical output under every thread count and shard
// combination — depends on strict lock discipline around the little
// shared state that exists.
// TSan only sees the interleavings that actually execute; these wrappers
// let Clang prove lock discipline at compile time instead:
//
//   * every field touched under a lock is declared GUARDED_BY(mutex_),
//   * every helper that assumes the lock is held is declared
//     REQUIRES(mutex_),
//   * and a clang build with -Wthread-safety -Wthread-safety-beta -Werror
//     (CMake option FPSCHED_THREAD_SAFETY, on by default under Clang)
//     turns any unlocked access into a compile error.
//
// Under GCC (or any compiler without the capability attributes) every
// macro expands to nothing and the classes are zero-cost transparent
// wrappers over their std counterparts, so the annotated code builds
// everywhere and behaves identically.
//
// The macro vocabulary follows the canonical mutex.h from the Clang
// thread-safety docs; names are unprefixed on purpose so annotated code
// reads like the upstream examples.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FPSCHED_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef FPSCHED_THREAD_ANNOTATION
#define FPSCHED_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

#define CAPABILITY(x) FPSCHED_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY FPSCHED_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) FPSCHED_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) FPSCHED_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) FPSCHED_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) FPSCHED_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) FPSCHED_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) FPSCHED_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) FPSCHED_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) FPSCHED_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) FPSCHED_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) FPSCHED_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) FPSCHED_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) FPSCHED_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) FPSCHED_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) FPSCHED_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS FPSCHED_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace fpsched {

/// std::mutex carrying the "mutex" capability. Lock it through LockGuard
/// or UniqueLock; the raw lock()/unlock() exist for completeness and are
/// equally analyzed.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  /// The wrapped mutex, for interop the analysis cannot follow. Callers
  /// bypassing the annotated surface must carry their own justification.
  std::mutex& native() { return mutex_; }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// std::lock_guard over Mutex: acquires for exactly one scope.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
  ~LockGuard() RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// std::unique_lock over Mutex: scoped like LockGuard but relockable —
/// stream_records-style code unlocks around a slow client write and
/// relocks after, and the analysis tracks the held/released state across
/// those calls.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) ACQUIRE(mutex) : lock_(mutex.native()) {}
  ~UniqueLock() RELEASE() {}  // unlocks iff still held (std::unique_lock semantics)

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ACQUIRE() { lock_.lock(); }
  void unlock() RELEASE() { lock_.unlock(); }
  bool owns_lock() const { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable bound to the annotated primitives. wait()
/// names the mutex explicitly so it can carry REQUIRES — the analysis
/// verifies at every wait site that the caller actually holds the lock
/// the predicate reads under. (The lock and mutex arguments must belong
/// together; the UniqueLock was necessarily constructed from that Mutex.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Blocks until notified. The capability is released while blocked and
  /// reacquired before returning, which is a no-op to the static lock
  /// state — hence REQUIRES, not RELEASE+ACQUIRE.
  void wait(UniqueLock& lock, Mutex& mutex) REQUIRES(mutex) {
    (void)mutex;
    cv_.wait(lock.lock_);
  }

  /// Predicate form: loops until pred() holds; pred runs under the lock.
  template <typename Predicate>
  void wait(UniqueLock& lock, Mutex& mutex, Predicate pred) REQUIRES(mutex) {
    (void)mutex;
    cv_.wait(lock.lock_, std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace fpsched
