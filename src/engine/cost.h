#ifndef GRAPHTEMPO_ENGINE_COST_H_
#define GRAPHTEMPO_ENGINE_COST_H_

#include <cstddef>
#include <cstdint>

/// \file
/// The planner's cost model (docs/ENGINE.md §Cost model).
///
/// A derivable spec has two routes: weight summation over the per-time-point
/// aggregates (§4.3) or re-running the kernels. Summation usually wins, but
/// the paper's own materialization study shows the margin depends on
/// interval length × live-entity counts, and derivation has a genuine losing
/// case: a *short* interval over an attribute subset whose roll-up layer is
/// not memoized yet pays `num_times` roll-ups to answer a one-point question.
/// The cost model prices both routes from cheap `PresenceIndex` cardinality
/// accessors (AppearancesOver / MaxCountOver — O(points) array reads) and the
/// store's group counts, so the planner routes each query on its own.
///
/// Estimates are *microseconds*, but only their ordering matters. The
/// constants were calibrated against the repo's own bench JSON on the
/// generated DBLP/MovieLens datasets (fig5_engine direct_ms vs
/// materialized_ms, fig10_engine engine_cold_ms across interval lengths,
/// fig11_engine rollups): one appearance scanned by Algorithm 2 costs a few
/// nanoseconds, one store point combined costs roughly a microsecond plus a
/// hash merge per group, and building one roll-up layer point costs about as
/// much as combining it. They are deliberately coarse — the model only has
/// to rank two routes whose true costs differ by integer factors at the
/// decision boundary the benches probe.

namespace graphtempo::engine {

/// One value, kept only for `perfbench/gtperf.cc`'s `Config::planner` assignment.
enum class PlannerMode : std::uint8_t { kCost };

/// Calibrated per-unit costs (microseconds). See the file comment for where
/// the numbers come from; `Default()` returns the calibrated singleton.
struct CostModel {
  /// Direct route: kernel dispatch, interval folds, index extraction and
  /// aggregation setup — paid once regardless of data size.
  double direct_setup_us = 20.0;
  /// Direct route: scanning one (entity, time) appearance in Algorithm 2.
  double direct_per_appearance_us = 0.004;
  /// Materialized route: fixed combine setup.
  double materialized_setup_us = 1.0;
  /// Materialized route: per store point visited by the combine loop.
  double combine_per_point_us = 0.5;
  /// Materialized route: per aggregate group merged per visited point.
  double combine_per_group_us = 0.06;
  /// Roll-up layer build: per time point of the store (only when the subset
  /// layer is not memoized yet — the first subset query pays for them all).
  double rollup_per_point_us = 1.0;
  /// Roll-up layer build: per store group re-grouped per time point.
  double rollup_per_group_us = 0.05;

  static const CostModel& Default();
};

/// Everything the estimator needs, gathered by the planner under its shared
/// state lock. All counts are cheap: presence-index popcount sums and store
/// map sizes.
struct CostInputs {
  /// Whether the materialized route is on the table at all (spec derivable,
  /// store present and fresh). When false only the direct route is priced.
  bool materialized_available = false;

  /// Time points in the spec's evaluation interval.
  std::size_t eval_points = 0;
  /// Σ live nodes / edges per evaluation point (PresenceIndex::AppearancesOver).
  std::size_t node_appearances = 0;
  std::size_t edge_appearances = 0;
  /// Aggregate groups per store point (node + edge map sizes at one point).
  std::size_t store_groups = 0;
  /// Whether the materialized answer needs a subset roll-up, and whether the
  /// memoized layer for that subset already exists.
  bool needs_rollup = false;
  bool layer_memoized = false;
  /// Total store points — the span a cold roll-up layer build covers.
  std::size_t total_points = 0;
};

/// Priced routes. `materialized_us < 0` means the route is unavailable
/// (spec not derivable / no store) and only `direct_us` is meaningful.
struct CostEstimate {
  double direct_us = 0.0;
  double materialized_us = -1.0;

  bool MaterializedWins() const {
    return materialized_us >= 0.0 && materialized_us <= direct_us;
  }
};

/// Prices the direct route always and the materialized route when
/// `inputs.materialized_available`. Monotonic in interval length: more
/// evaluation points (and therefore more appearances) never lower either
/// estimate — pinned by tests/cost_test.cc.
CostEstimate EstimateCost(const CostInputs& inputs,
                          const CostModel& model = CostModel::Default());

}  // namespace graphtempo::engine

#endif  // GRAPHTEMPO_ENGINE_COST_H_
