/// Differential suite for the unified query engine (docs/ENGINE.md).
///
/// The contract under test: an engine-routed query is *bit-identical* to the
/// equivalent direct core computation under every plan choice — direct
/// kernels vs Section 4.3 materialized derivation, forced via
/// `PlanOptions::force_route` — and at every thread count; the fingerprint
/// result cache really serves repeats and is dropped the moment the graph's
/// mutation generation moves, so no query can ever observe a stale answer.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/operators.h"
#include "datagen/dblp_gen.h"
#include "datagen/movielens_gen.h"
#include "datagen/profiles.h"
#include "test_graphs.h"
#include "util/parallel.h"

namespace graphtempo {
namespace {

using engine::PlanRoute;
using engine::QueryEngine;
using engine::QueryPlan;
using engine::QuerySpec;
using engine::TemporalOperatorKind;
using testing::BuildPaperGraph;
using testing::BuildRandomGraph;

/// Scaled-down Table 3 shape: enough years for non-trivial intervals, small
/// enough that the full route × thread matrix stays fast under sanitizers.
datagen::DatasetProfile SmallDblpProfile() {
  datagen::DatasetProfile profile;
  profile.name = "dblp-small";
  profile.time_labels = {"2000", "2001", "2002", "2003", "2004", "2005"};
  profile.nodes_per_time = {40, 48, 52, 60, 64, 70};
  profile.edges_per_time = {90, 110, 120, 140, 150, 170};
  return profile;
}

/// Scaled-down Table 4 shape (5 months, small pool).
datagen::DatasetProfile SmallMovieLensProfile() {
  datagen::DatasetProfile profile;
  profile.name = "ml-small";
  profile.time_labels = {"May", "Jun", "Jul", "Aug", "Sep"};
  profile.nodes_per_time = {30, 40, 45, 60, 35};
  profile.edges_per_time = {80, 120, 140, 200, 100};
  return profile;
}

TemporalGraph SmallDblp() {
  return datagen::GenerateDblpWithProfile(SmallDblpProfile(), {});
}

TemporalGraph SmallMovieLens() {
  datagen::MovieLensOptions options;
  options.user_pool = 150;
  return datagen::GenerateMovieLensWithProfile(SmallMovieLensProfile(), options);
}

/// The ground truth: the spec evaluated straight through the core API, no
/// engine, no cache, no materialization.
AggregateGraph DirectReference(const TemporalGraph& graph, const QuerySpec& spec) {
  GraphView view = engine::BuildOperatorView(graph, spec);
  AggregationOptions options;
  options.semantics = spec.semantics;
  options.filter = spec.filter;
  AggregateGraph agg = Aggregate(graph, view, spec.attrs, options);
  if (spec.symmetrize) return SymmetrizeAggregate(agg);
  return agg;
}

QuerySpec MakeSpec(TemporalOperatorKind op, IntervalSet t1, IntervalSet t2,
                   std::vector<AttrRef> attrs, AggregationSemantics semantics) {
  QuerySpec spec;
  spec.op = op;
  spec.t1 = std::move(t1);
  spec.t2 = std::move(t2);
  spec.attrs = std::move(attrs);
  spec.semantics = semantics;
  return spec;
}

/// A corpus covering every operator, both semantics, single- and multi-point
/// intervals, attribute subsets, reordering and symmetrization. `base` is the
/// engine's materialized attribute list, so subsets of it are derivable.
std::vector<QuerySpec> SpecCorpus(const TemporalGraph& graph,
                                  const std::vector<AttrRef>& base) {
  const std::size_t n = graph.num_times();
  const TimeId mid = static_cast<TimeId>(n / 2);
  const TimeId last = static_cast<TimeId>(n - 1);
  const IntervalSet empty(n);
  std::vector<AttrRef> first_only = {base[0]};
  std::vector<AttrRef> second_only = {base[1]};
  std::vector<AttrRef> reversed(base.rbegin(), base.rend());
  using K = TemporalOperatorKind;
  using S = AggregationSemantics;

  std::vector<QuerySpec> corpus;
  // Derivable: single-point projections (DIST ≡ ALL at a point, Fig 3).
  corpus.push_back(MakeSpec(K::kProject, IntervalSet::Point(n, mid), empty,
                            first_only, S::kDistinct));
  corpus.push_back(MakeSpec(K::kProject, IntervalSet::Point(n, 0), empty, base,
                            S::kAll));
  // Derivable: union-ALL (T-distributivity) — full set, subset, reordered,
  // empty-t2 degenerate form, non-contiguous interval, symmetrized.
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::All(n), IntervalSet::All(n),
                            base, S::kAll));
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::Range(n, 0, mid), empty,
                            second_only, S::kAll));
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::Range(n, 1, last),
                            IntervalSet::Point(n, 0), reversed, S::kAll));
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::Of(n, {0, mid, last}), empty,
                            first_only, S::kAll));
  QuerySpec symmetric_union = MakeSpec(K::kUnion, IntervalSet::All(n), empty,
                                       first_only, S::kAll);
  symmetric_union.symmetrize = true;
  corpus.push_back(symmetric_union);
  // Derivable: single-point union (also DIST ≡ ALL).
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::Point(n, last), empty,
                            second_only, S::kDistinct));
  // Direct-only: DIST unions are not T-distributive; multi-point projections
  // are not points; intersection and difference never distribute.
  corpus.push_back(MakeSpec(K::kUnion, IntervalSet::Range(n, 0, last), empty,
                            base, S::kDistinct));
  corpus.push_back(MakeSpec(K::kProject, IntervalSet::Range(n, 0, 1), empty,
                            first_only, S::kAll));
  corpus.push_back(MakeSpec(K::kIntersection, IntervalSet::Range(n, 0, mid),
                            IntervalSet::Range(n, mid, last), first_only, S::kAll));
  corpus.push_back(MakeSpec(K::kDifference, IntervalSet::Point(n, last),
                            IntervalSet::Point(n, 0), base, S::kDistinct));
  QuerySpec symmetric_diff = MakeSpec(K::kDifference, IntervalSet::Point(n, mid),
                                      IntervalSet::Point(n, 0), base, S::kAll);
  symmetric_diff.symmetrize = true;
  corpus.push_back(symmetric_diff);
  return corpus;
}

/// The acceptance matrix: every corpus spec × {default, forced-direct,
/// forced-materialized when derivable} × threads {1, 2, 7, 16}, each cell
/// compared bit-for-bit against the serial direct reference.
void RunDifferential(const TemporalGraph& graph, const std::vector<std::string>& names) {
  std::vector<AttrRef> base = ResolveAttributes(graph, names);
  std::vector<QuerySpec> corpus = SpecCorpus(graph, base);

  SetParallelism(1);
  std::vector<AggregateGraph> references;
  references.reserve(corpus.size());
  for (const QuerySpec& spec : corpus) references.push_back(DirectReference(graph, spec));

  QueryEngine engine(&graph);
  engine.EnableMaterialization(base);

  std::size_t derivable = 0;
  const std::size_t thread_counts[] = {1, 2, 7, 16};
  for (std::size_t threads : thread_counts) {
    SetParallelism(threads);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const QuerySpec& spec = corpus[i];
      const std::string label = spec.ToString(graph) + " @" + std::to_string(threads);

      engine.ClearCache();
      EXPECT_EQ(engine.Execute(spec), references[i]) << "default route: " << label;

      engine.ClearCache();
      QueryEngine::PlanOptions direct;
      direct.force_route = PlanRoute::kDirectKernel;
      EXPECT_EQ(engine.Execute(spec, direct), references[i]) << "direct: " << label;

      if (engine.Derivable(spec)) {
        ++derivable;
        engine.ClearCache();
        QueryEngine::PlanOptions materialized;
        materialized.force_route = PlanRoute::kMaterializedDerivation;
        EXPECT_EQ(engine.Execute(spec, materialized), references[i])
            << "materialized: " << label;
      }
    }
  }
  SetParallelism(1);
  // The materialized route must actually have been exercised (8 derivable
  // specs per thread count).
  EXPECT_EQ(derivable, 8u * 4u);
}

TEST(EngineDifferentialTest, DblpRoutesAndThreadsMatchDirect) {
  RunDifferential(SmallDblp(), {"gender", "publications"});
}

TEST(EngineDifferentialTest, MovieLensRoutesAndThreadsMatchDirect) {
  RunDifferential(SmallMovieLens(), {"gender", "rating"});
}

TEST(EngineDifferentialTest, MovieLensFourAttributeBase) {
  TemporalGraph graph = SmallMovieLens();
  std::vector<AttrRef> base =
      ResolveAttributes(graph, {"gender", "age", "occupation", "rating"});
  const std::size_t n = graph.num_times();
  QueryEngine engine(&graph);
  engine.EnableMaterialization(base);
  // Every pair from the 4-attribute store (the Fig 11c lattice), both routes.
  for (std::size_t a = 0; a < base.size(); ++a) {
    for (std::size_t b = a + 1; b < base.size(); ++b) {
      QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(n),
                                IntervalSet(n), {base[a], base[b]},
                                AggregationSemantics::kAll);
      AggregateGraph reference = DirectReference(graph, spec);
      ASSERT_TRUE(engine.Derivable(spec));
      engine.ClearCache();
      QueryEngine::PlanOptions materialized;
      materialized.force_route = PlanRoute::kMaterializedDerivation;
      EXPECT_EQ(engine.Execute(spec, materialized), reference) << a << "+" << b;
    }
  }
}

// --- Planner route + derivability rules -------------------------------------------

TEST(EnginePlannerTest, RoutesFollowSection43Derivability) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> base = ResolveAttributes(graph, {"gender", "publications"});
  QueryEngine engine(&graph);
  const IntervalSet empty(3);
  using K = TemporalOperatorKind;
  using S = AggregationSemantics;

  QuerySpec union_all = MakeSpec(K::kUnion, IntervalSet::All(3), empty, base, S::kAll);
  // No store yet: everything is direct.
  EXPECT_FALSE(engine.Derivable(union_all));
  EXPECT_EQ(engine.Plan(union_all).route, PlanRoute::kDirectKernel);

  engine.EnableMaterialization(base);
  EXPECT_TRUE(engine.Derivable(union_all));
  EXPECT_EQ(engine.Plan(union_all).route, PlanRoute::kMaterializedDerivation);

  // DIST does not distribute over union … except on a single point.
  QuerySpec union_dist = union_all;
  union_dist.semantics = S::kDistinct;
  EXPECT_FALSE(engine.Derivable(union_dist));
  QuerySpec point_dist = MakeSpec(K::kProject, IntervalSet::Point(3, 1), empty,
                                  base, S::kDistinct);
  EXPECT_TRUE(engine.Derivable(point_dist));

  // Intersection and difference are never derivable.
  EXPECT_FALSE(engine.Derivable(MakeSpec(K::kIntersection, IntervalSet::All(3),
                                         IntervalSet::All(3), base, S::kAll)));
  EXPECT_FALSE(engine.Derivable(MakeSpec(K::kDifference, IntervalSet::All(3),
                                         IntervalSet::Point(3, 0), base, S::kAll)));

  // Attributes must map injectively into the base list.
  std::vector<AttrRef> gender_twice = {base[0], base[0]};
  QuerySpec duplicate_attr = union_all;
  duplicate_attr.attrs = gender_twice;
  EXPECT_FALSE(engine.Derivable(duplicate_attr));

  // An opaque filter disqualifies derivation (and caching).
  NodeTimeFilter filter = [](NodeId, TimeId) { return true; };
  QuerySpec filtered = union_all;
  filtered.filter = &filter;
  EXPECT_FALSE(engine.Derivable(filtered));
  EXPECT_FALSE(engine.Plan(filtered).cacheable);
}

TEST(EnginePlannerTest, ExplainNamesRouteAndSteps) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> base = ResolveAttributes(graph, {"gender", "publications"});
  QueryEngine engine(&graph);
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(3),
                            IntervalSet(3), base, AggregationSemantics::kAll);

  std::string direct = engine.Plan(spec).Explain();
  EXPECT_NE(direct.find("route=direct"), std::string::npos) << direct;
  EXPECT_NE(direct.find("operator/union"), std::string::npos) << direct;
  EXPECT_NE(direct.find("aggregate"), std::string::npos) << direct;
  EXPECT_NE(direct.find("fingerprint=0x"), std::string::npos) << direct;

  engine.EnableMaterialization(base);
  QuerySpec subset = spec;
  subset.attrs = {base[0]};
  std::string materialized = engine.Plan(subset).Explain();
  EXPECT_NE(materialized.find("route=materialized"), std::string::npos) << materialized;
  EXPECT_NE(materialized.find("combine"), std::string::npos) << materialized;
  EXPECT_NE(materialized.find("roll-up"), std::string::npos) << materialized;
}

TEST(EnginePlannerDeath, ForcingUnderivableMaterializedRouteAborts) {
  TemporalGraph graph = BuildPaperGraph();
  QueryEngine engine(&graph);  // no store at all
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(3),
                            IntervalSet(3), ResolveAttributes(graph, {"gender"}),
                            AggregationSemantics::kAll);
  QueryEngine::PlanOptions options;
  options.force_route = PlanRoute::kMaterializedDerivation;
  EXPECT_DEATH(engine.Plan(spec, options), "not derivable");
}

// --- Fingerprints -----------------------------------------------------------------

TEST(EngineFingerprintTest, NormalizesT2AwayForProjections) {
  QuerySpec a = MakeSpec(TemporalOperatorKind::kProject, IntervalSet::Point(3, 1),
                         IntervalSet(3), {AttrRef{}}, AggregationSemantics::kAll);
  QuerySpec b = a;
  b.t2 = IntervalSet::All(3);  // ignored by the operator → same query
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_TRUE(a.EquivalentTo(b));

  QuerySpec c = a;
  c.op = TemporalOperatorKind::kUnion;
  c.t2 = IntervalSet(3);
  QuerySpec d = c;
  d.t2 = IntervalSet::All(3);  // t2 matters for union
  EXPECT_NE(c.Fingerprint(), d.Fingerprint());
  EXPECT_FALSE(c.EquivalentTo(d));
}

TEST(EngineFingerprintTest, DistinguishesEveryField) {
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Range(4, 0, 2),
                            IntervalSet::Point(4, 3), {AttrRef{}},
                            AggregationSemantics::kAll);
  const std::uint64_t fp = spec.Fingerprint();
  EXPECT_EQ(fp, spec.Fingerprint());  // stable

  QuerySpec changed = spec;
  changed.semantics = AggregationSemantics::kDistinct;
  EXPECT_NE(changed.Fingerprint(), fp);
  changed = spec;
  changed.symmetrize = true;
  EXPECT_NE(changed.Fingerprint(), fp);
  changed = spec;
  changed.t1 = IntervalSet::Range(4, 0, 3);
  EXPECT_NE(changed.Fingerprint(), fp);
  changed = spec;
  changed.op = TemporalOperatorKind::kIntersection;
  EXPECT_NE(changed.Fingerprint(), fp);
}

// Regression: the fingerprint used to hash the interval's domain size, so
// the same textual query re-bound after a time point was appended produced a
// different cache key — every cached answer became unreachable (a silent miss
// rather than an invalidation). Identity must depend on membership only.
TEST(EngineFingerprintTest, SurvivesTimeDomainGrowth) {
  QuerySpec before = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Range(3, 0, 1),
                              IntervalSet::Point(3, 1), {AttrRef{}},
                              AggregationSemantics::kDistinct);
  // The same query, bound after the domain grew from 3 to 13 time points.
  QuerySpec after = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Range(13, 0, 1),
                             IntervalSet::Point(13, 1), {AttrRef{}},
                             AggregationSemantics::kDistinct);
  EXPECT_EQ(before.Fingerprint(), after.Fingerprint());
  EXPECT_TRUE(before.EquivalentTo(after));
  EXPECT_TRUE(after.EquivalentTo(before));

  // Different membership over the grown domain is still a different query.
  QuerySpec other = after;
  other.t1 = IntervalSet::Range(13, 0, 2);
  EXPECT_NE(before.Fingerprint(), other.Fingerprint());
  EXPECT_FALSE(before.EquivalentTo(other));
}

TEST(EngineFingerprintTest, DependencyIntervalCoversT2) {
  // A difference is *evaluated* on T1 but its answer also depends on T2's
  // data — the cache validity interval must cover both.
  QuerySpec diff = MakeSpec(TemporalOperatorKind::kDifference, IntervalSet::Point(4, 3),
                            IntervalSet::Point(4, 0), {AttrRef{}},
                            AggregationSemantics::kAll);
  EXPECT_EQ(diff.EvaluationInterval(), IntervalSet::Point(4, 3));
  EXPECT_EQ(diff.DependencyInterval(), IntervalSet::Of(4, {0, 3}));

  QuerySpec project = MakeSpec(TemporalOperatorKind::kProject, IntervalSet::Point(4, 1),
                               IntervalSet::All(4), {AttrRef{}},
                               AggregationSemantics::kAll);
  EXPECT_EQ(project.DependencyInterval(), IntervalSet::Point(4, 1));  // t2 ignored
}

// --- Result cache -----------------------------------------------------------------

TEST(EngineCacheTest, RepeatedQueriesHit) {
  TemporalGraph graph = BuildRandomGraph(91, 40, 5);
  QueryEngine engine(&graph);
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(5),
                            IntervalSet(5), ResolveAttributes(graph, {"color"}),
                            AggregationSemantics::kAll);
  AggregateGraph first = engine.Execute(spec);
  AggregateGraph second = engine.Execute(spec);
  EXPECT_EQ(first, second);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_GT(engine.cache_stats().hits, 0u);

  // A *different* spec misses; a re-issue of the first still hits (LRU keeps
  // both under the default capacity).
  QuerySpec other = spec;
  other.semantics = AggregationSemantics::kDistinct;
  engine.Execute(other);
  EXPECT_EQ(engine.cache_stats().misses, 2u);
  engine.Execute(spec);
  EXPECT_EQ(engine.cache_stats().hits, 2u);
}

TEST(EngineCacheTest, LruEvictsAtCapacity) {
  TemporalGraph graph = BuildRandomGraph(92, 30, 4);
  QueryEngine::Config config;
  config.cache_capacity = 2;
  QueryEngine engine(&graph, config);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  auto point = [&](TimeId t) {
    return MakeSpec(TemporalOperatorKind::kProject, IntervalSet::Point(4, t),
                    IntervalSet(4), attrs, AggregationSemantics::kAll);
  };
  engine.Execute(point(0));
  engine.Execute(point(1));
  engine.Execute(point(2));  // evicts point(0)
  EXPECT_EQ(engine.cache_stats().evictions, 1u);
  engine.Execute(point(0));  // miss again
  EXPECT_EQ(engine.cache_stats().misses, 4u);
  engine.Execute(point(2));  // still resident: hit
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(EngineCacheTest, ZeroCapacityAndFiltersBypass) {
  TemporalGraph graph = BuildRandomGraph(93, 30, 4);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(4),
                            IntervalSet(4), attrs, AggregationSemantics::kAll);

  QueryEngine::Config config;
  config.cache_capacity = 0;
  QueryEngine uncached(&graph, config);
  uncached.Execute(spec);
  uncached.Execute(spec);
  EXPECT_EQ(uncached.cache_stats().hits, 0u);
  EXPECT_EQ(uncached.cache_stats().bypasses, 2u);

  QueryEngine engine(&graph);
  NodeTimeFilter filter = [](NodeId, TimeId) { return true; };
  QuerySpec filtered = spec;
  filtered.filter = &filter;
  EXPECT_EQ(engine.Execute(filtered), engine.Execute(spec));  // pass-all ≡ none
  engine.Execute(filtered);
  EXPECT_EQ(engine.cache_stats().bypasses, 2u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
}

// --- Mutation invalidation --------------------------------------------------------

TEST(EngineInvalidationTest, MutationOnExistingDomainRefreshesAnswer) {
  // Same fingerprint before and after the mutation — only the generation
  // check stands between the second query and a stale cached answer.
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> gender = ResolveAttributes(graph, {"gender"});
  QueryEngine engine(&graph);
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kProject, IntervalSet::Point(3, 0),
                            IntervalSet(3), gender, AggregationSemantics::kDistinct);
  AggregateGraph before = engine.Execute(spec);

  NodeId u5 = *graph.FindNode("u5");  // male, previously absent at t0
  graph.SetNodePresent(u5, 0);

  AggregateGraph after = engine.Execute(spec);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, DirectReference(graph, spec));
  EXPECT_EQ(engine.cache_stats().invalidations, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);

  // Untouched graph from here on: the refreshed result is itself cached.
  engine.Execute(spec);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(EngineInvalidationTest, AppendTimePointPlusRefreshServesGrownDomain) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> base = ResolveAttributes(graph, {"gender", "publications"});
  QueryEngine engine(&graph);
  engine.EnableMaterialization(base);

  QuerySpec old_spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(3),
                                IntervalSet(3), {base[0]}, AggregationSemantics::kAll);
  engine.Execute(old_spec);  // caches a result and memoizes the gender layer

  graph.AppendTimePoint("t3");
  NodeId u2 = *graph.FindNode("u2");
  NodeId u4 = *graph.FindNode("u4");
  graph.SetEdgePresent(*graph.FindEdge(u2, u4), 3);
  AttrRef pubs = *graph.FindAttribute("publications");
  graph.SetTimeVaryingValue(pubs.index, u2, 3, "2");
  graph.SetTimeVaryingValue(pubs.index, u4, 3, "1");
  engine.Refresh();

  QuerySpec grown = old_spec;
  grown.t1 = IntervalSet::All(4);
  grown.t2 = IntervalSet(4);
  ASSERT_TRUE(engine.Derivable(grown));
  QueryEngine::PlanOptions materialized;
  materialized.force_route = PlanRoute::kMaterializedDerivation;
  EXPECT_EQ(engine.Execute(grown, materialized), DirectReference(graph, grown));

  // Append-only growth never touched t0..t2, so the entry cached for the old
  // domain is still valid — it survives Refresh and keeps hitting.
  EXPECT_EQ(engine.cache_stats().invalidations, 0u);
  engine.Execute(old_spec);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(EngineInvalidationTest, StaleStoreFallsBackToDirectRoute) {
  // Between a graph mutation and the matching Refresh() the store lags the
  // graph. The planner must detect this and degrade gracefully to the direct
  // kernel route instead of aborting (the old behavior was a GT_CHECK death).
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> base = ResolveAttributes(graph, {"gender"});
  QueryEngine engine(&graph);
  engine.EnableMaterialization(base);
  graph.AppendTimePoint("t3");
  NodeId u1 = *graph.FindNode("u1");
  graph.SetNodePresent(u1, 3);

  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(4),
                            IntervalSet(4), base, AggregationSemantics::kAll);
  QueryEngine::PlanOptions materialized;
  materialized.force_route = PlanRoute::kMaterializedDerivation;

  QueryPlan plan = engine.Plan(spec, materialized);
  EXPECT_EQ(plan.route, PlanRoute::kDirectKernel);
  EXPECT_TRUE(plan.stale_fallback);
  EXPECT_NE(plan.Explain().find("stale-store-fallback"), std::string::npos);
  EXPECT_EQ(engine.Execute(spec, materialized), DirectReference(graph, spec));

  // Once refreshed, the forced materialized route works again.
  engine.Refresh();
  QueryPlan refreshed = engine.Plan(spec, materialized);
  EXPECT_EQ(refreshed.route, PlanRoute::kMaterializedDerivation);
  EXPECT_FALSE(refreshed.stale_fallback);
}

TEST(EngineInvalidationTest, PerEntryInvalidationKeepsDisjointIntervals) {
  // Three cached answers over disjoint intervals. A mutation at one time
  // point must evict only the entries whose dependency interval covers it.
  TemporalGraph graph = BuildRandomGraph(96, 30, 6);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  QueryEngine engine(&graph);

  QuerySpec early = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Of(6, {0, 1}),
                             IntervalSet(6), attrs, AggregationSemantics::kAll);
  QuerySpec middle = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Of(6, {2, 3}),
                              IntervalSet(6), attrs, AggregationSemantics::kAll);
  QuerySpec late = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Of(6, {4, 5}),
                            IntervalSet(6), attrs, AggregationSemantics::kAll);
  engine.Execute(early);
  engine.Execute(middle);
  engine.Execute(late);
  ASSERT_EQ(engine.cache_stats().misses, 3u);

  // Mutate t2: only `middle` depends on it.
  graph.SetNodePresent(0, 2);

  engine.Execute(early);
  engine.Execute(late);
  EXPECT_EQ(engine.cache_stats().hits, 2u);
  AggregateGraph refreshed = engine.Execute(middle);
  EXPECT_EQ(refreshed, DirectReference(graph, middle));
  EXPECT_EQ(engine.cache_stats().misses, 4u);
  EXPECT_EQ(engine.cache_stats().invalidations, 1u);
}

TEST(EngineInvalidationTest, DifferenceEntriesDependOnT2) {
  // difference(t1, t2) is evaluated on t1 but its answer reads t2's data:
  // a mutation inside t2 must invalidate the cached entry.
  TemporalGraph graph = BuildRandomGraph(97, 30, 5);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  QueryEngine engine(&graph);
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kDifference, IntervalSet::Point(5, 0),
                            IntervalSet::Of(5, {3, 4}), attrs, AggregationSemantics::kAll);
  AggregateGraph before = engine.Execute(spec);

  graph.SetNodePresent(0, 4);  // inside t2, outside the evaluation interval t1

  AggregateGraph after = engine.Execute(spec);
  EXPECT_EQ(after, DirectReference(graph, spec));
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().invalidations, 1u);
}

// --- Derivation layer stats -------------------------------------------------------

TEST(EngineDerivationTest, SubsetLayersMemoizeAcrossQueries) {
  TemporalGraph graph = BuildRandomGraph(94, 30, 5);
  std::vector<AttrRef> base = ResolveAttributes(graph, {"color", "level"});
  QueryEngine::Config config;
  config.cache_capacity = 0;  // isolate the derivation layer from the cache
  QueryEngine engine(&graph, config);
  engine.EnableMaterialization(base);
  QuerySpec spec = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(5),
                            IntervalSet(5), {base[0]}, AggregationSemantics::kAll);
  QueryEngine::PlanOptions materialized;
  materialized.force_route = PlanRoute::kMaterializedDerivation;

  engine.Execute(spec, materialized);
  EXPECT_EQ(engine.derivation_stats().rollups, 5u);
  EXPECT_EQ(engine.derivation_stats().rollup_hits, 0u);
  EXPECT_EQ(engine.derivation_stats().combines, 5u);

  engine.Execute(spec, materialized);
  EXPECT_EQ(engine.derivation_stats().rollups, 5u);  // layer reused
  EXPECT_EQ(engine.derivation_stats().rollup_hits, 5u);
  EXPECT_EQ(engine.derivation_stats().combines, 10u);
}

TEST(EngineDerivationTest, RollupHitsCountServedPointsOnly) {
  // Regression: a memoized subset layer used to credit rollup_hits with
  // num_times() per query regardless of how many points were actually read.
  // A single-point query served from a warm layer is exactly one hit.
  TemporalGraph graph = BuildRandomGraph(98, 30, 5);
  std::vector<AttrRef> base = ResolveAttributes(graph, {"color", "level"});
  QueryEngine::Config config;
  config.cache_capacity = 0;  // isolate the derivation layer from the cache
  QueryEngine engine(&graph, config);
  engine.EnableMaterialization(base);
  QueryEngine::PlanOptions materialized;
  materialized.force_route = PlanRoute::kMaterializedDerivation;

  QuerySpec warm = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::All(5),
                            IntervalSet(5), {base[0]}, AggregationSemantics::kAll);
  engine.Execute(warm, materialized);  // builds the {color} layer
  ASSERT_EQ(engine.derivation_stats().rollup_hits, 0u);

  QuerySpec point = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Point(5, 2),
                             IntervalSet(5), {base[0]}, AggregationSemantics::kAll);
  engine.Execute(point, materialized);
  EXPECT_EQ(engine.derivation_stats().rollup_hits, 1u);  // not num_times()

  QuerySpec pair = MakeSpec(TemporalOperatorKind::kUnion, IntervalSet::Of(5, {1, 3}),
                            IntervalSet(5), {base[0]}, AggregationSemantics::kAll);
  engine.Execute(pair, materialized);
  EXPECT_EQ(engine.derivation_stats().rollup_hits, 3u);
}

}  // namespace
}  // namespace graphtempo
