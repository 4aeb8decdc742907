// Deterministic work-sharing helper of the numerical kernels (markov/sparse
// SpMV, transient uniformisation).  Exploration does not use it: it runs
// the generator's one breadth-first loop on the calling thread.
//
// The contract that makes parallel numerics reproducible: [0, n) is split
// into one *contiguous* chunk per worker, every index is processed by
// exactly one worker, and the chunk boundaries depend only on n and the
// worker count — never on scheduling.  A kernel whose per-index computation
// has a fixed internal order (e.g. one output element per index) therefore
// produces bitwise-identical results for any thread count.
#pragma once

#include <cstddef>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace multival::core {

/// Current worker-thread budget for parallel_for (see set_parallel_threads).
[[nodiscard]] unsigned parallel_threads();

/// Overrides the worker budget (0 restores the hardware default).
/// Returns the previous setting.  Intended for tests, benchmarks and CLIs.
unsigned set_parallel_threads(unsigned n);

/// Runs body(worker, lo, hi) over a contiguous partition of [0, n) on up to
/// @p max_workers threads; chunks smaller than @p min_grain are not worth a
/// thread, so the worker count is clamped to n / min_grain (at least 1).
/// Worker 0 runs on the calling thread.  The first exception thrown by any
/// worker is rethrown after all workers joined.  Returns the worker count.
template <typename Body>
unsigned parallel_chunks(std::size_t n, unsigned max_workers,
                         std::size_t min_grain, Body&& body) {
  if (min_grain == 0) {
    min_grain = 1;
  }
  std::size_t workers = max_workers == 0 ? 1 : max_workers;
  workers = std::min<std::size_t>(workers, min_grain > 0 ? n / min_grain : n);
  if (workers <= 1) {
    body(0u, std::size_t{0}, n);
    return 1;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    const std::size_t lo = n * w / workers;
    const std::size_t hi = n * (w + 1) / workers;
    threads.emplace_back([&, w, lo, hi] {
      try {
        body(static_cast<unsigned>(w), lo, hi);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  try {
    body(0u, std::size_t{0}, n / workers);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
  return static_cast<unsigned>(workers);
}

/// Convenience form: body(lo, hi) over [0, n) with the process-wide thread
/// budget.  Serial (direct call, no thread spawn) when n < 2 * min_grain or
/// the budget is one thread.
template <typename Body>
void parallel_for(std::size_t n, std::size_t min_grain, Body&& body) {
  parallel_chunks(n, parallel_threads(), min_grain,
                  [&body](unsigned /*worker*/, std::size_t lo, std::size_t hi) {
                    body(lo, hi);
                  });
}

}  // namespace multival::core
