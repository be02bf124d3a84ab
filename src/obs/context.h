#ifndef GRAPHTEMPO_OBS_CONTEXT_H_
#define GRAPHTEMPO_OBS_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Request-scoped observability context (docs/OBSERVABILITY.md §Serving-path
/// observability). A `RequestContext` travels thread-locally with one served
/// request: the server binds it for the handling thread, the pool propagates
/// it into worker lanes (util/parallel), and the engine and kernels attribute
/// into it (route, cache outcome, grouping, kernel words, per-phase span
/// timings). Everything mutable is an atomic because pool workers write
/// concurrently with the coordinating thread.
///
/// The context is *passive*: binding one costs a TLS store, and with none
/// bound the per-span accumulation hook is a TLS load and a branch.

namespace graphtempo::obs {

/// One accumulated per-phase timing (a span name aggregated over the request).
struct PhaseTiming {
  const char* name;         ///< span-name literal, e.g. "engine/execute"
  std::uint64_t total_ns;   ///< summed durations across all occurrences
  std::uint64_t count;      ///< number of spans with this name
};

/// Per-request attribution record. Created by the server for each accepted
/// connection; fields are filled in as the request flows through the layers.
class RequestContext {
 public:
  /// Phase-table capacity: distinct span names kept per request. First come,
  /// first claimed; overflow names are counted in `phases_dropped`.
  static constexpr std::size_t kMaxPhases = 24;

  /// Allocates the next monotonic query ID. `client_request_id` is the
  /// sanitized value of the X-GT-Request-Id header ("" if absent).
  explicit RequestContext(std::string client_request_id = "");

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// Process-monotonic query ID (never reused, starts at 1).
  std::uint64_t query_id;

  /// Client-supplied correlation ID (X-GT-Request-Id), sanitized; may be "".
  std::string client_request_id;

  // --- attribution, written by engine/kernels/pool ------------------------------
  std::atomic<std::uint64_t> kernel_words{0};     ///< bitset words touched
  std::atomic<std::uint64_t> fingerprint{0};      ///< QuerySpec fingerprint
  std::atomic<const char*> route{""};             ///< "direct" | "materialized"
  std::atomic<const char*> cache{""};             ///< "hit" | "miss" | "bypass"
  std::atomic<const char*> grouping{""};          ///< "dense" | "hash"
  std::atomic<bool> stale_fallback{false};
  std::atomic<bool> batched{false};               ///< served inside a gather batch
  std::atomic<std::uint64_t> shared_fold_hits{0};    ///< batch fold-cache hits
  std::atomic<std::uint64_t> shared_fold_misses{0};  ///< batch fold-cache misses
  std::atomic<std::uint64_t> phases_dropped{0};   ///< names past kMaxPhases

  /// Folds one finished span into the phase table (called from the trace
  /// recorder; lock-free, safe from any thread holding this context).
  void AddPhase(const char* name, std::uint64_t duration_ns);

  /// Stable view of the phase table (for rendering the slow-query record).
  std::vector<PhaseTiming> Phases() const;

 private:
  struct PhaseSlot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> count{0};
  };
  PhaseSlot phases_[kMaxPhases];
};

/// The context bound to the calling thread, or nullptr.
RequestContext* CurrentRequestContext();

/// RAII bind/restore of the thread-local current context. The server binds
/// the handling thread; pool workers bind the issuing thread's context around
/// each chunk so attribution follows the request across lanes.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext* context);
  ~ScopedRequestContext();
  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext* previous_;
};

namespace internal_context {

/// Per-span hook called by the trace recorder: accumulates `duration_ns`
/// under `name` into the calling thread's bound context, if any.
void AccumulatePhase(const char* name, std::uint64_t duration_ns);

}  // namespace internal_context

}  // namespace graphtempo::obs

#endif  // GRAPHTEMPO_OBS_CONTEXT_H_
