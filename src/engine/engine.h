#ifndef GRAPHTEMPO_ENGINE_ENGINE_H_
#define GRAPHTEMPO_ENGINE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/materialization.h"
#include "engine/plan.h"
#include "engine/query_spec.h"
#include "storage/spill.h"

/// \file
/// `QueryEngine`: the unified planner + executor every entry point funnels
/// through (docs/ENGINE.md).
///
/// One engine wraps one `TemporalGraph` and answers `QuerySpec`s — aggregate
/// specs, evolution specs and exploration specs alike. For each spec the
/// *planner* picks a route:
///
///   * **direct** — run the temporal-operator bitset kernels and Algorithm 2
///     (or, for evolution/explore specs, the corresponding core sweep); the
///     plan records the dense-vs-hash grouping resolution (`ResolveGrouping`)
///     so `--explain` shows which kernel path fires;
///   * **materialized** — when `EnableMaterialization` built per-time-point
///     ALL aggregates and the spec is Section 4.3-derivable (T-distributive
///     union under ALL, or a single-point project/union where DIST ≡ ALL, on
///     an attribute subset of the base list), answer by weight summation over
///     the store plus a D-distributive `RollUp` — never touching the graph.
///     A store left stale by `AppendTimePoint` without `Refresh()` degrades
///     gracefully: the planner falls back to the direct route and bumps
///     `engine/stale_fallback`.
///
/// *Which* route wins for a derivable spec is decided by the cost model
/// (engine/cost.h): it prices both routes from interval length × live-entity
/// counts and picks the cheaper. The plan carries both estimates, so
/// `Explain()` always shows the route not taken. `PlanOptions::force_route`
/// is the only way to override it.
///
/// The *executor* runs the plan under GT_SPAN instrumentation (one span per
/// plan step, mirroring `QueryPlan::Explain`) and memoizes:
///
///   * per-(attribute-subset, time-point) roll-up layers, exactly the
///     Section 4.3 cube lattice (`DerivationStats` counts the savings);
///   * whole results in a bounded sloppy-LRU cache keyed by
///     `QuerySpec::Fingerprint` with a full `EquivalentTo` collision guard.
///     The cache is sharded by fingerprint so concurrent hits on different
///     shards never contend on one map mutex. Each entry is stamped with the
///     graph's `mutation_generation()` and the spec's `DependencyInterval()`;
///     an entry is served only while none of its dependency time points
///     mutated after the stamp (`TemporalGraph::IntervalUnchangedSince`).
///     Because `AppendTimePoint` stamps only the *new* point, append-only
///     ingestion leaves every old-interval answer valid — entries are evicted
///     per-entry, never wholesale. Specs carrying an opaque filter bypass the
///     cache entirely.
///
/// Batches of concurrent specs can be answered together via `ExecuteBatch`
/// (engine/batch.h): equivalent specs within the batch are merged, and the
/// remaining specs share one presence-fold cache so common interval folds are
/// computed once (docs/ENGINE.md §Batch execution).
///
/// ## Thread safety: any number of readers, one writer
///
/// `Execute`, `ExecuteResult`, `ExecuteBatch`, `Plan` and `Derivable` are
/// safe to call concurrently from any number of threads. Readers hold a
/// shared (reader) lock for the duration of a query; a cache hit takes only
/// that shared lock plus one shard's shared lock and a relaxed-atomic
/// "sloppy LRU" touch — no exclusive lock ever sits on the hit path. Stats
/// are atomics; subset-layer memoization is insert-once under its own mutex
/// and hands out stable storage.
///
/// Writers — `EnableMaterialization`, `Refresh`, `ClearCache` — take the
/// exclusive side of the same lock and therefore drain in-flight readers
/// first. Mutating the *wrapped graph* while readers may be executing must
/// happen under `AcquireWriterLock()`:
///
/// ```cpp
/// {
///   auto writer = engine.AcquireWriterLock();
///   graph.AppendTimePoint("2021");
///   graph.SetEdgePresent(e, t);
/// }                  // readers resume; a stale store falls back gracefully
/// engine.Refresh();  // takes the writer lock itself — do not hold it here
/// ```
///
/// Engine methods must not be called while holding the writer lock (the lock
/// is not reentrant). Single-threaded callers may keep mutating the graph
/// directly, as every test and CLI invocation does.

namespace graphtempo::obs {
class RequestContext;  // obs/context.h
}  // namespace graphtempo::obs

namespace graphtempo::engine {

class FoldCache;  // engine/batch.h — shared presence-fold memo for batches

/// The result of one executed spec: exactly one member is populated,
/// selected by `kind` (which mirrors the spec's kind).
struct QueryResult {
  QueryKind kind = QueryKind::kAggregate;
  AggregateGraph aggregate;        ///< kind == kAggregate
  EvolutionAggregate evolution;    ///< kind == kEvolution
  ExplorationResult exploration;   ///< kind == kExplore
};

class QueryEngine {
 public:
  struct Config {
    /// Result-cache entries kept (sloppy LRU). 0 disables result caching —
    /// the derivation layers still memoize.
    std::size_t cache_capacity = 64;

    /// Read by nothing; kept only for `perfbench/gtperf.cc`'s assignment.
    PlannerMode planner = PlannerMode::kCost;

    /// Spill directory for the cold tier (docs/STORAGE.md §Spill tier).
    /// Empty disables spilling: evicted roll-up layers and result-cache
    /// entries are simply dropped, as before.
    std::string spill_dir;

    /// Maximum memoized roll-up layers kept *resident*; beyond it the coldest
    /// unpinned layer is serialized to the spill directory (or dropped when
    /// spilling is disabled). 0 = unlimited (the historical behaviour).
    std::size_t max_resident_layers = 0;
  };

  /// Does not take ownership of `graph`; `graph` must outlive the engine.
  explicit QueryEngine(const TemporalGraph* graph) : QueryEngine(graph, Config{}) {}
  QueryEngine(const TemporalGraph* graph, Config config);

  const TemporalGraph& graph() const { return *graph_; }

  // --- Materialization (Section 4.3 base layer) ---

  /// Builds the per-time-point ALL-aggregate store over `attrs` (at most
  /// AttrTuple::kMaxAttrs), unlocking the materialized route for derivable
  /// specs. Idempotent for the same attribute list; GT_CHECKs against
  /// re-enabling with a different one. Exclusive writer: drains readers.
  void EnableMaterialization(std::vector<AttrRef> attrs);

  bool materialization_enabled() const;

  /// Base attribute list of the store; GT_CHECKs materialization_enabled().
  const std::vector<AttrRef>& materialized_attrs() const;

  /// Incremental maintenance after `TemporalGraph::AppendTimePoint`: extends
  /// the base store and every memoized subset layer to the new time points,
  /// and sweeps result-cache entries whose dependency intervals were touched
  /// (untouched entries survive — append-only means old snapshots are
  /// immutable). No-op when up to date or when materialization is disabled.
  /// Exclusive writer: drains readers.
  void Refresh();

  /// Exclusive access for mutating the wrapped graph while concurrent
  /// readers may be executing: blocks until in-flight `Execute`/`Plan` calls
  /// drain and holds off new ones until released. Do not call engine methods
  /// while holding it (the lock is not reentrant) — in particular, release
  /// it *before* `Refresh()`; the planner's stale-store fallback keeps the
  /// window between the two safe.
  [[nodiscard]] std::unique_lock<std::shared_mutex> AcquireWriterLock() const;

  // --- Planning ---

  struct PlanOptions {
    /// Force the route instead of letting the planner choose — the
    /// differential suite uses this to pin route equivalence. Forcing
    /// kMaterializedDerivation GT_CHECKs that the spec is derivable (a
    /// *stale* store still degrades to the direct route, see
    /// QueryPlan::stale_fallback).
    std::optional<PlanRoute> force_route;
  };

  /// Plans without executing — what the CLI's `--explain` prints.
  QueryPlan Plan(const QuerySpec& spec) const { return Plan(spec, PlanOptions{}); }
  QueryPlan Plan(const QuerySpec& spec, const PlanOptions& options) const;

  /// True when the planner may answer `spec` from the materialization store.
  bool Derivable(const QuerySpec& spec) const;

  // --- Execution ---

  /// Aggregate-spec convenience: GT_CHECKs `spec.kind == kAggregate`.
  AggregateGraph Execute(const QuerySpec& spec) { return Execute(spec, PlanOptions{}); }
  AggregateGraph Execute(const QuerySpec& spec, const PlanOptions& options);

  /// Kind-generic execution (evolution and exploration specs included).
  QueryResult ExecuteResult(const QuerySpec& spec) {
    return ExecuteResult(spec, PlanOptions{});
  }
  QueryResult ExecuteResult(const QuerySpec& spec, const PlanOptions& options);

  /// One query of a batch: the spec plus the request context to attribute
  /// into while it runs (nullptr for none). See engine/batch.h.
  struct BatchItem {
    const QuerySpec* spec = nullptr;
    obs::RequestContext* ctx = nullptr;
  };

  /// Executes `items` as one batch under a single reader lock: specs that
  /// are pairwise-equivalent are computed once and fanned out
  /// (`engine/batch_merged`), and the remaining executions share one
  /// presence-fold cache (`engine/batch_fold_hits`/`_misses`). Results are
  /// byte-identical to executing each item alone — pinned by the batch
  /// differential suite. Defined in engine/batch.cc.
  std::vector<QueryResult> ExecuteBatch(std::span<const BatchItem> items);

  /// Drops every cached result (stats keep counting). Forced-route
  /// experiments call this between runs so each route really executes.
  /// Exclusive writer: drains readers.
  void ClearCache();

  // --- Observability ---

  /// Result-cache behaviour, read as one relaxed snapshot of the atomic
  /// counters. Mirrored into the obs registry as `engine/cache_hit` etc. so
  /// `--perf` and the benches see them.
  struct CacheStats {
    std::uint64_t hits = 0;           ///< served from cache
    std::uint64_t misses = 0;         ///< computed (cacheable specs only)
    std::uint64_t bypasses = 0;       ///< uncacheable (filtered) executions
    std::uint64_t evictions = 0;      ///< capacity (sloppy-LRU) evictions
    std::uint64_t invalidations = 0;  ///< per-entry stale evictions on mutation
  };

  /// Section 4.3 derivation work, cube-compatible semantics: `rollups` /
  /// `rollup_hits` count per-time-point subset roll-ups computed / served
  /// from a memoized layer (hits count only the evaluation points the query
  /// actually consumed); `combines` counts per-time-point aggregates
  /// weight-summed into union results.
  struct DerivationStats {
    std::size_t rollups = 0;
    std::size_t rollup_hits = 0;
    std::size_t combines = 0;
  };

  CacheStats cache_stats() const;
  DerivationStats derivation_stats() const;

 private:
  /// Bitmask over base attribute positions; position i → bit i.
  using SubsetMask = std::uint32_t;

  /// One memoized roll-up layer plus the bookkeeping the spill tier needs.
  /// `data` is null while the layer lives in the spill directory; `pins`
  /// counts readers currently consuming the vector (pinned layers are never
  /// evicted). Pins are acquired under `subset_mutex_` and released with a
  /// plain atomic decrement, so an evictor that observes pins == 0 under the
  /// mutex knows no reader holds or can acquire the layer.
  struct LayerEntry {
    std::unique_ptr<std::vector<AggregateGraph>> data;
    std::atomic<std::uint64_t> last_used{0};
    std::atomic<std::uint32_t> pins{0};
    bool spilled = false;  ///< a spill file exists for this layer
  };

  /// RAII pin on a resident layer: keeps the vector alive (un-evictable)
  /// while a query iterates it.
  class LayerRef {
   public:
    LayerRef() = default;
    explicit LayerRef(LayerEntry* entry) : entry_(entry) {}
    LayerRef(LayerRef&& other) noexcept : entry_(std::exchange(other.entry_, nullptr)) {}
    LayerRef& operator=(LayerRef&& other) noexcept {
      if (this != &other) {
        Release();
        entry_ = std::exchange(other.entry_, nullptr);
      }
      return *this;
    }
    LayerRef(const LayerRef&) = delete;
    LayerRef& operator=(const LayerRef&) = delete;
    ~LayerRef() { Release(); }

    const std::vector<AggregateGraph>& operator*() const { return *entry_->data; }

   private:
    void Release() {
      if (entry_ != nullptr) entry_->pins.fetch_sub(1, std::memory_order_acq_rel);
    }
    LayerEntry* entry_ = nullptr;
  };

  /// One cached result plus everything needed to decide, per entry, whether
  /// it is still valid and when it was last useful. Heap-allocated so the
  /// address is stable regardless of map rehashing; `last_used` is atomic so
  /// the hit path can touch it under a shared lock.
  struct CachedResult {
    CachedResult(QuerySpec spec_in, QueryResult result_in,
                 IntervalSet dependencies_in, std::uint64_t generation_in,
                 std::uint64_t last_used_in)
        : spec(std::move(spec_in)),
          result(std::move(result_in)),
          dependencies(std::move(dependencies_in)),
          generation(generation_in),
          last_used(last_used_in) {}

    QuerySpec spec;                ///< collision guard (EquivalentTo)
    QueryResult result;
    IntervalSet dependencies;      ///< spec.DependencyInterval() at fill time
    std::uint64_t generation = 0;  ///< graph generation the result reflects
    std::atomic<std::uint64_t> last_used{0};  ///< sloppy-LRU clock stamp
  };

  /// The result cache is split into shards keyed by fingerprint so the hit
  /// path of concurrent readers locks only its own shard. Sloppy-LRU
  /// semantics are global: capacity counts entries across all shards and the
  /// eviction victim is the globally smallest stamp (all shard locks taken
  /// in index order — the only multi-shard lock site).
  static constexpr std::size_t kCacheShards = 8;
  struct CacheShard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::uint64_t, std::unique_ptr<CachedResult>> entries;
  };
  static std::size_t ShardIndex(std::uint64_t fingerprint) {
    return (fingerprint ^ (fingerprint >> 32)) % kCacheShards;
  }

  /// Maps `spec.attrs` into positions of the base attribute list (caller
  /// order). Returns false — leaving `keep` untouched — when any attribute is
  /// not in the base list or appears twice.
  bool MapToBasePositions(const QuerySpec& spec, std::vector<std::size_t>* keep) const;

  /// `Plan`/`Derivable` bodies; callers hold `state_mutex_` (shared or
  /// exclusive).
  QueryPlan PlanLocked(const QuerySpec& spec, const PlanOptions& options) const;
  bool DerivableLocked(const QuerySpec& spec) const;

  /// Cost-model inputs for an aggregate spec (cheap: popcount sums over the
  /// evaluation interval via PresenceIndex). `derivable` and `keep` are the
  /// planner's derivability verdict + base positions.
  CostInputs CostInputsLocked(const QuerySpec& spec, bool derivable,
                              std::span<const std::size_t> keep) const;

  /// True when the store exists but `AppendTimePoint` outran `Refresh()`.
  bool StoreStale() const;

  /// The memoized per-time-point roll-up layer for an ascending,
  /// duplicate-free strict subset of base positions, pinned for the caller's
  /// lifetime. Insert-once under `subset_mutex_`; a spilled layer is
  /// reloaded from the spill directory instead of recomputed.
  /// `*served_from_memo` reports whether the layer already existed (resident
  /// or spilled).
  LayerRef SubsetLayer(std::span<const std::size_t> canonical, bool* served_from_memo);

  /// Spill-file key for a subset layer.
  static std::string LayerSpillKey(SubsetMask mask);

  /// While over `max_resident_layers`, serializes the coldest unpinned
  /// resident layer out to the spill tier (or drops it when spilling is
  /// disabled). Caller holds `subset_mutex_`.
  void EvictLayersLocked();

  /// Whether the layer for `mask` is already memoized (cost-model probe;
  /// const: takes `subset_mutex_` only for the map lookup).
  bool SubsetLayerMemoized(SubsetMask mask) const;

  /// True while no dependency time point of `entry` mutated past its stamp.
  bool EntryValid(const CachedResult& entry) const;

  /// Inserts (or overwrites) the result computed for `spec` at graph
  /// `generation`, sweeping genuinely stale entries and evicting the least
  /// recently used beyond capacity. Takes shard locks exclusively.
  void InsertResult(const QuerySpec& spec, const QueryPlan& plan,
                    const QueryResult& result, std::uint64_t generation);

  /// The whole execute pipeline minus the reader lock: plan, cache probe,
  /// run, fill. Callers hold `state_mutex_` shared. `folds` (optional)
  /// routes direct-route operator folds through a batch-shared cache.
  QueryResult ExecuteLocked(const QuerySpec& spec, const PlanOptions& options,
                            FoldCache* folds);

  QueryResult Run(const QuerySpec& spec, const QueryPlan& plan, FoldCache* folds);
  AggregateGraph RunDirect(const QuerySpec& spec, const QueryPlan& plan,
                           FoldCache* folds);
  AggregateGraph RunMaterialized(const QuerySpec& spec, const QueryPlan& plan);

  const TemporalGraph* graph_;
  Config config_;

  /// Readers/writer brokerage for everything reachable from a query: the
  /// wrapped graph, `store_` and the subset-layer *contents*. Readers
  /// (Execute/Plan/Derivable) take it shared; EnableMaterialization, Refresh
  /// and AcquireWriterLock take it exclusive.
  mutable std::shared_mutex state_mutex_;

  /// Guards subset-layer insertion (insert-once; lookups also lock — the map
  /// itself is small and the critical section is a hash probe). Mutable so
  /// the const planner can probe memoization for the cost model.
  mutable std::mutex subset_mutex_;

  std::optional<MaterializationStore> store_;
  std::unordered_map<SubsetMask, std::unique_ptr<LayerEntry>> subset_layers_;

  /// The cold tier (null when `Config::spill_dir` is empty).
  std::unique_ptr<storage::SpillDirectory> spill_;

  /// Index of result-cache entries that were evicted to the spill directory:
  /// everything needed to validate a spilled answer without reading its
  /// bytes. Guarded by `spill_mutex_` (ordered after the shard locks; never
  /// held while taking any other engine lock).
  struct SpilledResult {
    QuerySpec spec;            ///< collision guard, as in CachedResult
    IntervalSet dependencies;  ///< validity interval at spill time
    std::uint64_t generation = 0;
  };
  mutable std::mutex spill_mutex_;
  std::unordered_map<std::uint64_t, SpilledResult> spilled_results_;

  /// Probes the spilled-result index for `fingerprint` and, when the entry
  /// is still valid for `spec`, reloads + decodes it (dropping the spill
  /// entry either way: valid entries get promoted back into the resident
  /// cache by the caller, stale ones must not be probed again).
  std::optional<QueryResult> TryLoadSpilledResult(std::uint64_t fingerprint,
                                                  const QuerySpec& spec);

  /// Moves an evicted aggregate result into the spill tier (no-op for other
  /// result kinds or when spilling is disabled).
  void SpillEvictedResult(std::uint64_t fingerprint, const CachedResult& victim);

  /// Fingerprint → cached result, sharded by `ShardIndex`. unique_ptr keeps
  /// entry addresses stable across rehash so the hit path can read an entry
  /// while other readers probe the same shard. Shard locks are ordered after
  /// `state_mutex_` (never acquire `state_mutex_` while holding one) and by
  /// ascending shard index among themselves.
  std::array<CacheShard, kCacheShards> cache_shards_;

  /// Entries across all shards (capacity accounting without a global lock).
  std::atomic<std::size_t> cache_size_{0};

  /// Logical clock behind the sloppy LRU: hits stamp their entry with the
  /// next tick (relaxed); eviction scans for the smallest stamp. Exactness
  /// under concurrent hits is deliberately not guaranteed — only that
  /// recently-served entries outrank idle ones.
  std::atomic<std::uint64_t> lru_clock_{0};

  struct AtomicCacheStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> bypasses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> invalidations{0};
  };
  struct AtomicDerivationStats {
    std::atomic<std::uint64_t> rollups{0};
    std::atomic<std::uint64_t> rollup_hits{0};
    std::atomic<std::uint64_t> combines{0};
  };

  AtomicCacheStats cache_stats_;
  AtomicDerivationStats derivation_stats_;
};

}  // namespace graphtempo::engine

#endif  // GRAPHTEMPO_ENGINE_ENGINE_H_
