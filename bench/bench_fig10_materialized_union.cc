/// Figure 10: speedup of union-ALL aggregation derived from precomputed
/// per-time-point aggregates (T-distributivity) over computing it from
/// scratch. Shape claims:
///   * substantial speedups that grow with the interval length;
///   * larger speedups for the time-varying attribute (the paper reports
///     8–20× for gender, 8–78× for publications on DBLP).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/materialization.h"
#include "core/operators.h"
#include "engine/engine.h"
#include "obs/metrics.h"

namespace gt = graphtempo;
using gt::bench::DoNotOptimize;
using gt::bench::Ms;
using gt::bench::PrintTitle;
using gt::bench::TablePrinter;
using gt::bench::TimeMsPrecise;
using gt::bench::X;

namespace {

void RunAttribute(const gt::TemporalGraph& graph, const std::string& dataset,
                  const std::string& attr) {
  std::printf("--- %s, attribute %s: union-ALL over [%s, y] ---\n", dataset.c_str(),
              attr.c_str(), graph.time_label(0).c_str());
  TablePrinter table({"y", "scratch", "cached", "speedup"});
  table.PrintHeader();

  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, {attr});
  gt::MaterializationStore store(&graph, attrs);
  store.MaterializeAllTimePoints();
  const std::size_t n = graph.num_times();

  for (gt::TimeId y = 1; y < n; ++y) {
    gt::IntervalSet interval = gt::IntervalSet::Range(n, 0, y);
    double scratch_ms = TimeMsPrecise([&] {
      gt::GraphView view = gt::UnionOp(graph, interval, interval);
      gt::AggregateGraph agg =
          gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kAll);
      DoNotOptimize(agg.NodeCount());
    });
    double cached_ms = TimeMsPrecise([&] {
      gt::AggregateGraph agg = store.UnionAllAggregate(interval);
      DoNotOptimize(agg.NodeCount());
    });
    table.PrintRow({graph.time_label(y), Ms(scratch_ms), Ms(cached_ms),
                    X(cached_ms > 0 ? scratch_ms / cached_ms : 0.0)});
  }

  // The same query through the query engine: the planner picks the
  // materialized route on its own, and the fingerprint cache turns repeats
  // into lookups. `engine_cold_ms` clears the result cache every iteration
  // (derivation cost), `engine_warm_ms` leaves it warm (cache-hit cost).
  gt::engine::QueryEngine engine(&graph);
  engine.EnableMaterialization(attrs);
  gt::engine::QuerySpec spec;
  spec.op = gt::engine::TemporalOperatorKind::kUnion;
  spec.t1 = gt::IntervalSet::Range(n, 0, static_cast<gt::TimeId>(n - 1));
  spec.t2 = gt::IntervalSet(n);
  spec.attrs = attrs;
  spec.semantics = gt::AggregationSemantics::kAll;
  const gt::engine::QueryPlan plan = engine.Plan(spec);
  double cold_ms = TimeMsPrecise([&] {
    engine.ClearCache();
    DoNotOptimize(engine.Execute(spec).NodeCount());
  });
  double warm_ms = TimeMsPrecise([&] { DoNotOptimize(engine.Execute(spec).NodeCount()); });

  // Exercise the shared batch path with the same spec duplicated: the later
  // copies merge into the first execution, so the record carries live batch
  // counters (tools/validate_trace.py requires them on route-carrying rows).
  const std::uint64_t merged_before =
      gt::obs::Registry::Instance().Snapshot().CounterValue("engine/batch_merged");
  const std::uint64_t fold_hits_before =
      gt::obs::Registry::Instance().Snapshot().CounterValue("engine/batch_fold_hits");
  engine.ClearCache();
  std::vector<gt::engine::QueryEngine::BatchItem> batch(
      4, gt::engine::QueryEngine::BatchItem{&spec, nullptr});
  DoNotOptimize(engine.ExecuteBatch(batch).size());
  const gt::obs::MetricsSnapshot after = gt::obs::Registry::Instance().Snapshot();

  gt::bench::JsonLine json("fig10_engine");
  json.Add("dataset", dataset);
  json.Add("attr", attr);
  json.Add("route", std::string(gt::engine::PlanRouteName(plan.route)));
  json.Add("engine_cold_ms", cold_ms);
  json.Add("engine_warm_ms", warm_ms);
  const gt::engine::QueryEngine::CacheStats cache = engine.cache_stats();
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
  std::printf("\n");
}

}  // namespace

int main() {
  PrintTitle("Partial materialization: union-ALL from per-time-point aggregates",
             "paper Figure 10");
  RunAttribute(gt::bench::DblpGraph(), "DBLP (Fig 10a)", "gender");
  RunAttribute(gt::bench::DblpGraph(), "DBLP (Fig 10b)", "publications");
  RunAttribute(gt::bench::MovieLensGraph(), "MovieLens", "gender");
  RunAttribute(gt::bench::MovieLensGraph(), "MovieLens", "rating");
  std::printf("Expected shape: order-of-magnitude speedups that grow with the interval,\n"
              "larger for the time-varying attribute.\n");
  return 0;
}
