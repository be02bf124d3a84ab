/// Figure 11: speedup of deriving sub-attribute-set aggregates by rolling up
/// a materialized super-set aggregate (D-distributivity) over aggregating
/// from scratch, per time point. The paper's cases:
///   * Fig 11a — DBLP: gender and publications derived from (gender,
///     publications), 6–21×;
///   * Fig 11b — MovieLens: each single attribute from each pair containing
///     it (G1..G3, R1..R3), up to 48×;
///   * Fig 11c/d — all pairs / triplets from the 4-attribute aggregate,
///     up to 8× / 6×.

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/materialization.h"
#include "core/operators.h"
#include "engine/engine.h"
#include "obs/metrics.h"

namespace gt = graphtempo;
using gt::bench::DoNotOptimize;
using gt::bench::PrintTitle;
using gt::bench::TablePrinter;
using gt::bench::TimeMsPrecise;
using gt::bench::X;

namespace {

/// Average over all time points of (scratch time / roll-up time) for deriving
/// the aggregate over `keep` positions of `super_attrs`.
double AverageSpeedup(const gt::TemporalGraph& graph,
                      const std::vector<std::string>& super_attrs,
                      const std::vector<std::size_t>& keep) {
  std::vector<gt::AttrRef> super_refs = gt::ResolveAttributes(graph, super_attrs);
  std::vector<std::string> sub_names;
  for (std::size_t position : keep) sub_names.push_back(super_attrs[position]);
  std::vector<gt::AttrRef> sub_refs = gt::ResolveAttributes(graph, sub_names);

  const std::size_t n = graph.num_times();
  double total_speedup = 0.0;
  for (gt::TimeId t = 0; t < n; ++t) {
    gt::GraphView snapshot = gt::Project(graph, gt::IntervalSet::Point(n, t));
    gt::AggregateGraph super =
        gt::Aggregate(graph, snapshot, super_refs, gt::AggregationSemantics::kAll);
    double scratch_ms = TimeMsPrecise([&] {
      gt::AggregateGraph agg =
          gt::Aggregate(graph, snapshot, sub_refs, gt::AggregationSemantics::kAll);
      DoNotOptimize(agg.NodeCount());
    });
    double rollup_ms = TimeMsPrecise([&] {
      gt::AggregateGraph agg = gt::RollUp(super, keep);
      DoNotOptimize(agg.NodeCount());
    });
    total_speedup += rollup_ms > 0 ? scratch_ms / rollup_ms : 0.0;
  }
  return total_speedup / static_cast<double>(n);
}

void Report(const gt::TemporalGraph& graph, const std::string& label,
            const std::vector<std::string>& super_attrs,
            const std::vector<std::size_t>& keep) {
  std::string sub;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (i != 0) sub += "+";
    sub += super_attrs[keep[i]];
  }
  std::string super;
  for (std::size_t i = 0; i < super_attrs.size(); ++i) {
    if (i != 0) super += "+";
    super += super_attrs[i];
  }
  double speedup = AverageSpeedup(graph, super_attrs, keep);
  std::printf("  %-8s %-22s from (%s): %s\n", label.c_str(), sub.c_str(), super.c_str(),
              X(speedup).c_str());
}

/// Thread-count sweep on the Fig 11a configuration: the super-set ALL
/// aggregate (gender, publications) on the DBLP union graph — the aggregate
/// every roll-up in this figure starts from. Emits speedup vs the serial
/// baseline as JSON.
void RunThreadScaling(const gt::TemporalGraph& graph) {
  std::printf("\nDBLP union-graph super-set aggregation, thread sweep:\n");
  std::vector<gt::AttrRef> attrs =
      gt::ResolveAttributes(graph, {"gender", "publications"});
  const std::size_t n = graph.num_times();
  gt::IntervalSet all = gt::IntervalSet::All(n);
  gt::GraphView view = gt::UnionOp(graph, all, all);

  gt::bench::JsonLine json("fig11_thread_sweep");
  json.Add("dataset", std::string("DBLP"));
  gt::bench::RunThreadSweep(gt::bench::ThreadSweep(), json, [&] {
    gt::AggregateGraph agg =
        gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kAll);
    DoNotOptimize(agg.NodeCount());
  });
  json.Print();
}

/// The Fig 11a derivations through the query engine: single attributes from
/// the (gender, publications) store. The first query per subset builds the
/// memoized roll-up layer (`rollups`); a repeat after ClearCache re-derives
/// from the layer (`rollup_hits`); a third identical query never leaves the
/// result cache (`cache_hits`). Emits route + counters as JSON.
void RunEngineDerivation(const gt::TemporalGraph& graph) {
  std::printf("\nDBLP single attributes via the query engine (route + counters):\n");
  std::vector<gt::AttrRef> super_refs =
      gt::ResolveAttributes(graph, {"gender", "publications"});
  gt::engine::QueryEngine engine(&graph);
  engine.EnableMaterialization(super_refs);
  const std::size_t n = graph.num_times();

  std::string route;
  gt::engine::QuerySpec spec;
  for (const gt::AttrRef& attr : super_refs) {
    spec.op = gt::engine::TemporalOperatorKind::kUnion;
    spec.t1 = gt::IntervalSet::All(n);
    spec.t2 = gt::IntervalSet(n);
    spec.attrs = {attr};
    spec.semantics = gt::AggregationSemantics::kAll;
    const gt::engine::QueryPlan plan = engine.Plan(spec);
    route = gt::engine::PlanRouteName(plan.route);
    DoNotOptimize(engine.Execute(spec).NodeCount());  // builds the roll-up layer
    engine.ClearCache();
    DoNotOptimize(engine.Execute(spec).NodeCount());  // re-derives from the layer
    DoNotOptimize(engine.Execute(spec).NodeCount());  // pure result-cache hit
  }

  // Duplicate the last spec through the shared batch path so the record
  // carries live batch counters (tools/validate_trace.py requires them).
  const std::uint64_t merged_before =
      gt::obs::Registry::Instance().Snapshot().CounterValue("engine/batch_merged");
  const std::uint64_t fold_hits_before =
      gt::obs::Registry::Instance().Snapshot().CounterValue("engine/batch_fold_hits");
  engine.ClearCache();
  std::vector<gt::engine::QueryEngine::BatchItem> batch(
      4, gt::engine::QueryEngine::BatchItem{&spec, nullptr});
  DoNotOptimize(engine.ExecuteBatch(batch).size());
  const gt::obs::MetricsSnapshot after = gt::obs::Registry::Instance().Snapshot();

  const gt::engine::QueryEngine::DerivationStats derivation = engine.derivation_stats();
  const gt::engine::QueryEngine::CacheStats cache = engine.cache_stats();
  gt::bench::JsonLine json("fig11_engine");
  json.Add("dataset", std::string("DBLP"));
  json.Add("route", route);
  json.Add("rollups", derivation.rollups);
  json.Add("rollup_hits", derivation.rollup_hits);
  json.Add("combines", derivation.combines);
  json.Add("cache_hits", static_cast<std::size_t>(cache.hits));
  json.Add("cache_misses", static_cast<std::size_t>(cache.misses));
  json.Add("cache_invalidations", static_cast<std::size_t>(cache.invalidations));
  json.Add("stale_fallbacks",
           static_cast<std::size_t>(after.CounterValue("engine/stale_fallback")));
  json.Add("batch_merged", static_cast<std::size_t>(
                               after.CounterValue("engine/batch_merged") - merged_before));
  json.Add("batch_fold_hits",
           static_cast<std::size_t>(after.CounterValue("engine/batch_fold_hits") -
                                    fold_hits_before));
  json.Print();
}

/// The planner-flip point (docs/ENGINE.md §Cost model): a *single-point*
/// subset query on a fresh engine. Forcing the materialized route pays a cold
/// subset layer — one roll-up per store point — before combining the single
/// requested point; the cost model prices that layer against one direct
/// snapshot aggregation and flips to the direct kernel. Emits both routes and
/// cold latencies as JSON: the flip shows as `cost_route=direct` with
/// `cost_ms < materialized_ms`.
void RunPlannerFlip(const gt::TemporalGraph& graph) {
  std::printf("\nDBLP single-point subset query, forced materialized vs cost-chosen "
              "route (cold):\n");
  std::vector<gt::AttrRef> super_refs =
      gt::ResolveAttributes(graph, {"gender", "publications"});
  const std::size_t n = graph.num_times();

  gt::engine::QuerySpec spec;
  spec.op = gt::engine::TemporalOperatorKind::kUnion;
  spec.t1 = gt::IntervalSet::Point(n, 0);
  spec.t2 = gt::IntervalSet(n);
  spec.attrs = {super_refs[0]};  // strict subset of the store: needs a roll-up
  spec.semantics = gt::AggregationSemantics::kAll;

  auto cold_run = [&](const gt::engine::QueryEngine::PlanOptions& options,
                      std::string* route) {
    double best_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {  // fresh engine per rep; keep the min
      gt::engine::QueryEngine engine(&graph);
      engine.EnableMaterialization(super_refs);
      *route = gt::engine::PlanRouteName(engine.Plan(spec, options).route);
      gt::Stopwatch watch;
      watch.Start();
      DoNotOptimize(engine.Execute(spec, options).NodeCount());
      const double ms = watch.ElapsedMillis();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };

  gt::engine::QueryEngine::PlanOptions forced;
  forced.force_route = gt::engine::PlanRoute::kMaterializedDerivation;
  std::string materialized_route, cost_route;
  const double materialized_ms = cold_run(forced, &materialized_route);
  const double cost_ms = cold_run({}, &cost_route);
  std::printf("  forced: %-12s %8.3f ms   cost: %-12s %8.3f ms\n",
              materialized_route.c_str(), materialized_ms, cost_route.c_str(), cost_ms);

  gt::bench::JsonLine json("fig11_planner_flip");
  json.Add("dataset", std::string("DBLP"));
  json.Add("materialized_route", materialized_route);
  json.Add("cost_route", cost_route);
  json.Add("materialized_ms", materialized_ms);
  json.Add("cost_ms", cost_ms);
  json.Print();
}

}  // namespace

int main() {
  PrintTitle("Partial materialization: attribute roll-up per time point",
             "paper Figure 11");
  const gt::TemporalGraph& dblp = gt::bench::DblpGraph();
  std::printf("DBLP (Fig 11a): average speedup over all years\n");
  Report(dblp, "G", {"gender", "publications"}, {0});
  Report(dblp, "P", {"gender", "publications"}, {1});

  const gt::TemporalGraph& ml = gt::bench::MovieLensGraph();
  std::printf("\nMovieLens single attributes from pairs (Fig 11b):\n");
  Report(ml, "G1", {"gender", "age"}, {0});
  Report(ml, "G2", {"gender", "rating"}, {0});
  Report(ml, "G3", {"gender", "occupation"}, {0});
  Report(ml, "R1", {"rating", "gender"}, {0});
  Report(ml, "R2", {"rating", "age"}, {0});
  Report(ml, "R3", {"rating", "occupation"}, {0});

  const std::vector<std::string> all4 = {"gender", "age", "occupation", "rating"};
  std::printf("\nMovieLens pairs from the 4-attribute aggregate (Fig 11c):\n");
  const std::pair<std::size_t, std::size_t> pairs[] = {{0, 1}, {0, 2}, {0, 3},
                                                       {1, 2}, {1, 3}, {2, 3}};
  for (const auto& [a, b] : pairs) {
    Report(ml, "", all4, {a, b});
  }

  std::printf("\nMovieLens triplets from the 4-attribute aggregate (Fig 11d):\n");
  const std::vector<std::size_t> triplets[] = {{0, 1, 2}, {0, 1, 3}, {0, 2, 3},
                                               {1, 2, 3}};
  for (const auto& keep : triplets) {
    Report(ml, "", all4, keep);
  }

  RunThreadScaling(dblp);
  RunEngineDerivation(dblp);
  RunPlannerFlip(dblp);

  std::printf("\nExpected shape: single attributes gain the most, then pairs, then\n"
              "triplets (the coarser the target, the more grouping work is saved).\n");
  return 0;
}
