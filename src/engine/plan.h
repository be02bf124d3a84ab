#ifndef GRAPHTEMPO_ENGINE_PLAN_H_
#define GRAPHTEMPO_ENGINE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/cost.h"

/// \file
/// `QueryPlan`: the inspectable output of `QueryEngine::Plan` (docs/ENGINE.md).
///
/// A plan names the chosen *route* — direct kernels vs Section 4.3
/// materialized derivation — plus an ordered list of steps the executor will
/// run, each with a human-readable detail string. `Explain()` renders the
/// whole plan, which is what the CLI's `--explain` flag prints and what the
/// engine differential suite uses to assert routing decisions.

namespace graphtempo::engine {

/// How the executor will answer the query.
enum class PlanRoute : std::uint8_t {
  /// Run the temporal-operator bitset kernels and Algorithm 2 directly.
  kDirectKernel,
  /// Derive the answer from materialized per-time-point aggregates:
  /// T-distributive weight summation (UnionAllAggregate) plus, for attribute
  /// subsets, D-distributive RollUp — never touching the original graph.
  kMaterializedDerivation,
};

/// "direct" / "materialized".
const char* PlanRouteName(PlanRoute route);

/// One executor step. `kind` doubles as the GT_SPAN name suffix the executor
/// uses when running the step, so a trace of an engine query mirrors its
/// Explain output one-to-one.
struct PlanStep {
  std::string kind;    ///< e.g. "operator/union", "aggregate", "combine", "roll-up"
  std::string detail;  ///< human-readable parameters of the step
};

/// The executable plan for one QuerySpec.
struct QueryPlan {
  std::uint64_t fingerprint = 0;  ///< cache key of the underlying spec
  PlanRoute route = PlanRoute::kDirectKernel;
  bool cacheable = true;  ///< false when the spec carries an opaque filter

  /// True when the spec was derivable but the materialization store had not
  /// been `Refresh()`ed after an `AppendTimePoint` — the planner degrades to
  /// the direct route instead of serving (or crashing on) stale aggregates,
  /// and bumps the `engine/stale_fallback` counter.
  bool stale_fallback = false;

  /// Priced routes (microseconds; ordering is what matters) — the cost
  /// planner's inputs, kept so `Explain()` shows the route not taken too;
  /// `cost.materialized_us < 0` means the materialized route was unavailable
  /// for this spec.
  CostEstimate cost;

  /// Direct route: the grouping paths Algorithm 2 will take (dense vs hash,
  /// resolved automatically from the dictionary domains). Meaningless for
  /// the materialized route.
  bool dense_nodes = false;
  bool dense_edges = false;

  /// Materialized route: positions into the engine's base attribute list, in
  /// the caller's attribute order. Identity over the full base list means
  /// "no roll-up needed".
  std::vector<std::size_t> keep_positions;
  bool needs_rollup = false;

  std::vector<PlanStep> steps;

  /// Multi-line rendering:
  ///
  ///   plan fingerprint=0x9c0ffee…  route=materialized  cache=eligible
  ///   estimate direct=41.2us materialized=5.3us
  ///     1. combine    store=(gender,publications) points=5
  ///     2. roll-up    keep=[0]
  ///     3. symmetrize mirror-edge merge
  std::string Explain() const;
};

}  // namespace graphtempo::engine

#endif  // GRAPHTEMPO_ENGINE_PLAN_H_
