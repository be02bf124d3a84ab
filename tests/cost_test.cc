/// The planner's cost model (docs/ENGINE.md §Cost model).
///
/// Pinned contracts:
///   * `EstimateCost` is monotonic in interval length — more evaluation
///     points (and the appearances they bring) never lower either estimate;
///   * `force_route` pins the materialized route on every derivable spec;
///   * the cost planner flips always-deriving's losing case — a short
///     interval over a cold attribute subset — to the direct route, and the
///     cost-chosen and forced routes return bit-identical answers.

#include "engine/cost.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using engine::CostEstimate;
using engine::CostInputs;
using engine::CostModel;
using engine::EstimateCost;
using engine::PlanRoute;
using engine::QueryEngine;
using engine::QueryPlan;
using engine::QuerySpec;
using engine::TemporalOperatorKind;
using testing::BuildRandomGraph;

CostInputs InputsForPoints(std::size_t points, std::size_t total_points,
                           bool needs_rollup = false, bool layer_memoized = false) {
  CostInputs inputs;
  inputs.materialized_available = true;
  inputs.eval_points = points;
  // Appearances scale with the interval, as PresenceIndex::AppearancesOver does.
  inputs.node_appearances = points * 100;
  inputs.edge_appearances = points * 300;
  inputs.store_groups = 24;
  inputs.needs_rollup = needs_rollup;
  inputs.layer_memoized = layer_memoized;
  inputs.total_points = total_points;
  return inputs;
}

TEST(CostModelTest, MonotonicInIntervalLength) {
  double previous_direct = -1.0;
  double previous_materialized = -1.0;
  for (std::size_t points = 1; points <= 32; ++points) {
    const CostEstimate estimate = EstimateCost(InputsForPoints(points, 32));
    EXPECT_GE(estimate.direct_us, previous_direct)
        << "direct estimate dropped at " << points << " points";
    EXPECT_GE(estimate.materialized_us, previous_materialized)
        << "materialized estimate dropped at " << points << " points";
    previous_direct = estimate.direct_us;
    previous_materialized = estimate.materialized_us;
  }
}

TEST(CostModelTest, DirectOnlyWhenMaterializedUnavailable) {
  CostInputs inputs = InputsForPoints(4, 16);
  inputs.materialized_available = false;
  const CostEstimate estimate = EstimateCost(inputs);
  EXPECT_GT(estimate.direct_us, 0.0);
  EXPECT_LT(estimate.materialized_us, 0.0);
  EXPECT_FALSE(estimate.MaterializedWins());
}

TEST(CostModelTest, ColdRollupLayerIsPricedOverEveryStorePoint) {
  const CostEstimate memoized =
      EstimateCost(InputsForPoints(1, 64, /*needs_rollup=*/true, /*layer_memoized=*/true));
  const CostEstimate cold =
      EstimateCost(InputsForPoints(1, 64, /*needs_rollup=*/true, /*layer_memoized=*/false));
  // The cold layer pays 64 roll-up points; the memoized one pays none.
  EXPECT_GT(cold.materialized_us, memoized.materialized_us);
  const CostModel& model = CostModel::Default();
  const double layer_cost = 64.0 * (model.rollup_per_point_us +
                                    24.0 * model.rollup_per_group_us);
  EXPECT_NEAR(cold.materialized_us - memoized.materialized_us, layer_cost, 1e-9);
}

/// A graph + store where the two routes have real work to disagree on: two
/// attributes materialized, so single-attribute specs need a roll-up.
/// Dense-ish and long (many appearances per point, 40 time points) so the
/// routes separate cleanly on both sides of the boundary: a cold roll-up
/// layer spans 40 points (direct wins the one-point query), while the
/// full-interval combine touches far fewer groups than the direct kernel
/// touches appearances (materialized wins the long query).
class PlannerRoutingTest : public ::testing::Test {
 protected:
  PlannerRoutingTest()
      : graph_(BuildRandomGraph(/*seed=*/7, /*num_nodes=*/120, /*num_times=*/40,
                                /*presence_p=*/0.6, /*colors=*/3, /*levels=*/2,
                                /*edge_p=*/0.3)) {}

  QuerySpec SpecOver(std::size_t first, std::size_t last,
                     const std::vector<std::string>& attrs) const {
    QuerySpec spec;
    spec.op = TemporalOperatorKind::kUnion;
    spec.t1 = IntervalSet::Range(graph_.num_times(), static_cast<TimeId>(first),
                                 static_cast<TimeId>(last));
    spec.t2 = IntervalSet(graph_.num_times());
    spec.attrs = ResolveAttributes(graph_, attrs);
    spec.semantics = AggregationSemantics::kAll;
    return spec;
  }

  TemporalGraph graph_;
};

TEST_F(PlannerRoutingTest, ForcedMaterializedRouteDerivesEveryDerivableSpec) {
  QueryEngine engine(&graph_);
  engine.EnableMaterialization(ResolveAttributes(graph_, {"color", "level"}));
  // `force_route` overrides the cost model: every derivable spec — full set
  // or subset, short or long interval — then takes the materialized route,
  // and the plan still carries both estimates.
  QueryEngine::PlanOptions forced;
  forced.force_route = PlanRoute::kMaterializedDerivation;
  const std::vector<std::vector<std::string>> attr_sets = {
      {"color", "level"}, {"color"}, {"level"}};
  for (const auto& attrs : attr_sets) {
    for (std::size_t last : {std::size_t{0}, std::size_t{3}, std::size_t{39}}) {
      const QuerySpec spec = SpecOver(0, last, attrs);
      ASSERT_TRUE(engine.Derivable(spec));
      const QueryPlan plan = engine.Plan(spec, forced);
      EXPECT_EQ(plan.route, PlanRoute::kMaterializedDerivation)
          << "forced route ignored (attrs=" << attrs.size() << ", last=" << last << ")";
      EXPECT_EQ(plan.cost.materialized_us, engine.Plan(spec).cost.materialized_us);
    }
  }
  // A spec that is not derivable stays on the direct kernel.
  QuerySpec distinct = SpecOver(0, 3, {"color"});
  distinct.semantics = AggregationSemantics::kDistinct;
  if (!engine.Derivable(distinct)) {
    EXPECT_EQ(engine.Plan(distinct).route, PlanRoute::kDirectKernel);
  }
}

TEST_F(PlannerRoutingTest, CostPlannerFlipsShortColdSubsetToDirect) {
  QueryEngine engine(&graph_);
  engine.EnableMaterialization(ResolveAttributes(graph_, {"color", "level"}));
  // One point, subset attrs, no memoized layer: the materialized route would
  // build a 40-point roll-up layer to answer a 1-point question.
  const QuerySpec short_subset = SpecOver(0, 0, {"color"});
  const QueryPlan flip = engine.Plan(short_subset);
  ASSERT_TRUE(engine.Derivable(short_subset));
  EXPECT_EQ(flip.route, PlanRoute::kDirectKernel)
      << "cost planner must not pay a cold roll-up layer for one point";
  EXPECT_GT(flip.cost.direct_us, 0.0);
  EXPECT_GT(flip.cost.materialized_us, flip.cost.direct_us);

  // The full-interval full-set query keeps the materialized route: combining
  // per-point aggregates beats re-scanning every appearance.
  const QuerySpec long_full = SpecOver(0, 39, {"color", "level"});
  const QueryPlan keep = engine.Plan(long_full);
  ASSERT_TRUE(engine.Derivable(long_full));
  EXPECT_EQ(keep.route, PlanRoute::kMaterializedDerivation)
      << "cost planner should still derive the long full-set query";
  EXPECT_TRUE(keep.cost.MaterializedWins());
}

TEST_F(PlannerRoutingTest, CostChosenAndForcedRoutesReturnIdenticalAnswers) {
  // No result cache, so every Execute runs the route it was planned on.
  QueryEngine::Config config;
  config.cache_capacity = 0;
  QueryEngine engine(&graph_, config);
  engine.EnableMaterialization(ResolveAttributes(graph_, {"color", "level"}));
  QueryEngine::PlanOptions materialized;
  materialized.force_route = PlanRoute::kMaterializedDerivation;
  QueryEngine::PlanOptions direct;
  direct.force_route = PlanRoute::kDirectKernel;

  const std::vector<std::vector<std::string>> attr_sets = {
      {"color", "level"}, {"color"}, {"level"}};
  for (const auto& attrs : attr_sets) {
    for (std::size_t last : {std::size_t{0}, std::size_t{5}, std::size_t{39}}) {
      const QuerySpec spec = SpecOver(0, last, attrs);
      const AggregateGraph chosen = engine.Execute(spec);
      EXPECT_EQ(chosen, engine.Execute(spec, materialized))
          << "cost-chosen vs materialized differ on attrs=" << attrs.size()
          << ", last=" << last;
      EXPECT_EQ(chosen, engine.Execute(spec, direct))
          << "cost-chosen vs direct differ on attrs=" << attrs.size()
          << ", last=" << last;
    }
  }
}

TEST_F(PlannerRoutingTest, ExplainRendersBothEstimates) {
  QueryEngine engine(&graph_);
  engine.EnableMaterialization(ResolveAttributes(graph_, {"color", "level"}));
  const std::string explain = engine.Plan(SpecOver(0, 0, {"color"})).Explain();
  EXPECT_EQ(explain.find("planner="), std::string::npos) << explain;
  EXPECT_NE(explain.find("estimate direct="), std::string::npos) << explain;
  EXPECT_NE(explain.find("materialized="), std::string::npos) << explain;
}

}  // namespace
}  // namespace graphtempo
