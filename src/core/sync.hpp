// Clang thread-safety analysis wrappers: a std::mutex / condition_variable
// pair whose lock discipline the compiler can check statically.  Also the
// hardware thread count that sizes the serve and dse worker pools.
//
// The annotations follow the capability model of
// clang.llvm.org/docs/ThreadSafetyAnalysis.html: a Mutex is a capability,
// data members carry MV_GUARDED_BY(mu_), and functions that expect the
// lock to be held carry MV_REQUIRES(mu_).  Under clang the CI builds with
// -Werror=thread-safety, so forgetting a lock (or taking two in an
// inconsistent order across REQUIRES boundaries) is a compile error, not a
// data race found in production.  Under any other compiler every macro
// expands to nothing and the wrappers are zero-cost aliases for the
// standard primitives.
//
// Usage:
//   core::Mutex mu_;
//   core::CondVar cv_;
//   std::deque<Job> queue_ MV_GUARDED_BY(mu_);
//   ...
//   core::MutexLock lock(mu_);
//   cv_.wait(mu_, [this]() MV_REQUIRES(mu_) { return !queue_.empty(); });
//
// The condition variable waits on the *Mutex* (abseil style), not on a
// std::unique_lock, so the analysis sees the capability being released and
// reacquired across the wait.  Annotate wait predicates with
// MV_REQUIRES(mu) — they run with the lock held but are otherwise analysed
// as standalone functions.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#if defined(__clang__) && (!defined(SWIG))
#define MV_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MV_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define MV_CAPABILITY(x) MV_THREAD_ANNOTATION(capability(x))
#define MV_SCOPED_CAPABILITY MV_THREAD_ANNOTATION(scoped_lockable)
#define MV_GUARDED_BY(x) MV_THREAD_ANNOTATION(guarded_by(x))
#define MV_PT_GUARDED_BY(x) MV_THREAD_ANNOTATION(pt_guarded_by(x))
#define MV_ACQUIRE(...) MV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MV_RELEASE(...) MV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MV_TRY_ACQUIRE(...) \
  MV_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define MV_REQUIRES(...) MV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MV_EXCLUDES(...) MV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define MV_RETURN_CAPABILITY(x) MV_THREAD_ANNOTATION(lock_returned(x))
#define MV_NO_THREAD_SAFETY_ANALYSIS \
  MV_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace multival::core {

/// std::thread::hardware_concurrency(), or 1 where it is unknown: the size
/// of a serve or dse worker pool asked for with 0 workers.
[[nodiscard]] inline unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// std::mutex annotated as a thread-safety capability.
class MV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MV_ACQUIRE() { mu_.lock(); }
  void unlock() MV_RELEASE() { mu_.unlock(); }
  bool try_lock() MV_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over Mutex — the annotated stand-in for std::lock_guard.
class MV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MV_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MV_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable that waits on a core::Mutex.  The caller holds the
/// mutex (enforced by MV_REQUIRES); internally the wait adopts the held
/// lock, sleeps, and releases ownership back to the caller's MutexLock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  template <typename Predicate>
  void wait(Mutex& mu, Predicate stop) MV_REQUIRES(mu) {
    std::unique_lock<std::mutex> held(mu.mu_, std::adopt_lock);
    cv_.wait(held, std::move(stop));
    held.release();  // ownership stays with the caller's MutexLock
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
                Predicate stop) MV_REQUIRES(mu) {
    std::unique_lock<std::mutex> held(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(held, timeout, std::move(stop));
    held.release();
    return satisfied;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace multival::core
