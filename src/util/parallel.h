#ifndef GRAPHTEMPO_UTIL_PARALLEL_H_
#define GRAPHTEMPO_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// Static-partition data parallelism for entity scans.
///
/// The hot loops of the temporal operators are embarrassingly parallel: one
/// independent presence-predicate evaluation per node/edge row. (The paper's
/// reference implementation leaned on Modin for the same reason.)
/// `ParallelPartition` splits an index range into per-thread chunks —
/// boundaries aligned so concurrent writers never share a bitset word — and
/// runs a callback per chunk. Chunk outputs indexed by chunk id keep results
/// deterministic regardless of thread scheduling.
///
/// Execution model (see docs/PARALLELISM.md for the full contract):
///
///   * The shared worker pool is a *multi-job* engine: every `Run` enqueues
///     its own job, so any number of application threads may issue parallel
///     scans concurrently — they share the workers instead of serializing or
///     trampling each other's hand-off slot.
///   * `Run`/`ParallelFor` are **reentrant**: a chunk body may itself invoke
///     `ParallelFor` (e.g. an aggregation running inside a parallel
///     exploration sweep). The issuing thread always drains its own job's
///     unclaimed chunks before blocking, so nesting can never deadlock —
///     in the worst case the nested scan simply runs inline.
///   * Parallelism is off by default (1 thread); opt in per process via
///     `SetParallelism` on multi-core machines. Every algorithm produces
///     bit-identical results at any thread count — asserted by the test
///     suite — so correctness never depends on the setting.

namespace graphtempo {

/// Sets the process-wide worker-thread count (≥ 1) and pre-starts the shared
/// worker pool. Not synchronized with running scans; call it during setup.
void SetParallelism(std::size_t threads);

/// Current process-wide worker-thread count.
std::size_t GetParallelism();

/// Largest thread count any user-facing knob accepts. Far above any sane
/// configuration — the cap exists so a typo ("--threads 1e9" pasted as
/// "--threads 19") cannot ask the OS for an absurd number of threads.
inline constexpr std::size_t kMaxConfiguredThreads = 512;

/// The one validator behind every user-facing thread/worker-count knob (CLI
/// `--threads`, `serve --workers`, `loadgen --clients`): accepts a decimal
/// integer in [1, kMaxConfiguredThreads]. On failure returns false and sets
/// `*error` to a human-readable reason (without the flag name, which the
/// caller prepends).
bool ParseThreadCount(std::string_view text, std::size_t* threads, std::string* error);

/// Internal: dispatches `chunks` invocations of `fn` onto the shared pool,
/// blocking until all complete. Use ParallelPartition::Run instead.
void internal_RunOnPool(std::size_t chunks, const std::function<void(std::size_t)>& fn);

class ParallelPartition {
 public:
  /// Plans chunks for `count` items. Uses min(GetParallelism(),
  /// count / min_per_chunk) chunks (at least one); chunk boundaries are
  /// multiples of `alignment`, so writers of packed bit arrays (64 items per
  /// word) never contend on a word.
  explicit ParallelPartition(std::size_t count, std::size_t min_per_chunk = 2048,
                             std::size_t alignment = 64);

  std::size_t num_chunks() const { return bounds_.size() - 1; }

  /// Half-open item range of chunk `i`.
  std::pair<std::size_t, std::size_t> chunk(std::size_t i) const {
    return {bounds_[i], bounds_[i + 1]};
  }

  /// Runs `fn(chunk_index, begin, end)` for every chunk — inline when there
  /// is one chunk, on the shared persistent worker pool otherwise (the
  /// calling thread participates). Reentrant: `fn` may itself run nested
  /// parallel scans. `fn` must not throw.
  template <typename Fn>
  void Run(Fn&& fn) const {
    if (num_chunks() == 1) {
      fn(std::size_t{0}, bounds_[0], bounds_[1]);
      return;
    }
    std::function<void(std::size_t)> chunk_fn = [&fn, this](std::size_t c) {
      fn(c, bounds_[c], bounds_[c + 1]);
    };
    internal_RunOnPool(num_chunks(), chunk_fn);
  }

 private:
  std::vector<std::size_t> bounds_;  // num_chunks + 1 ascending offsets
};

/// Convenience: runs `fn(chunk, begin, end)` over `count` items with the
/// default partition parameters.
template <typename Fn>
void ParallelFor(std::size_t count, Fn&& fn) {
  ParallelPartition(count).Run(std::forward<Fn>(fn));
}

}  // namespace graphtempo

#endif  // GRAPHTEMPO_UTIL_PARALLEL_H_
