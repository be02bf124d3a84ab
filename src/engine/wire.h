#ifndef GRAPHTEMPO_ENGINE_WIRE_H_
#define GRAPHTEMPO_ENGINE_WIRE_H_

#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/temporal_graph.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/query_spec.h"
#include "util/json.h"

/// \file
/// The wire format of the query service (docs/SERVER.md): JSON in →
/// `QuerySpec` out, and `AggregateGraph` / `QueryPlan` / engine counters back
/// to JSON. The CLI shares the time-point / interval parsing below, so
/// `--t1 2004..2007` on the command line and `"t1": "2004..2007"` on the wire
/// bind identically — the server differential suite pins wire-served answers
/// bit-identical to direct engine calls.
///
/// A query request is one JSON object:
///
/// ```json
/// {
///   "op": "union",                  // union|intersection|difference|project
///   "t1": "2004..2007",             // label/index, or "a..b" range (required)
///   "t2": "2008",                   // optional; defaults like the CLI's --t2
///   "attrs": ["gender"],            // required, 1..kMaxAttrs names
///   "semantics": "dist",            // dist|all            (default dist)
///   "symmetrize": false,            // default false
///   "explain": false,               // plan only, no execution
///   "top": 32                       // cap result rows     (default: all)
/// }
/// ```
///
/// A result is `{"fingerprint","route","interval","semantics","node_count",
/// "edge_count","nodes":[{"tuple":[...],"weight":n}...],"edges":[...]}` with
/// rows sorted by weight descending, then tuple codes ascending — fully
/// deterministic, so two servers answering the same spec emit identical
/// bytes.
///
/// Beyond the aggregate family, a request may carry `"kind"`:
///
/// ```json
/// {"kind": "evolution", "t1": "2004..2007", "t2": "2008",
///  "attrs": ["gender"]}
/// {"kind": "explore", "event": "growth",        // stability|growth|shrinkage
///  "extension": "union",                        // union|intersection
///  "reference": "new",                          // old|new
///  "select": "edges",                           // nodes|edges
///  "attrs": ["gender"], "k": 100}
/// ```
///
/// Evolution responses carry `"kind":"evolution"` and per-row
/// stability/growth/shrinkage weights; explore responses carry
/// `"kind":"explore"` and the qualifying interval pairs. Aggregate responses
/// keep their historical shape unchanged.

namespace graphtempo::engine::wire {

/// "2005" / "5" → TimeId; label lookup first, index fallback. On failure sets
/// `*error` ("unknown time point '…'") and returns nullopt.
std::optional<TimeId> ParseTimePoint(const TemporalGraph& graph, const std::string& text,
                                     std::string* error);

/// "a..b" or single point → IntervalSet. Stops at the *first* bad endpoint:
/// one malformed range yields exactly one diagnostic in `*error`, never two.
std::optional<IntervalSet> ParseInterval(const TemporalGraph& graph,
                                         const std::string& text, std::string* error);

/// Options the request carries beyond the spec itself.
struct RequestOptions {
  bool explain = false;     ///< plan only; the response carries no rows
  std::size_t top = 0;      ///< result row cap per section; 0 = unlimited
};

/// Binds one parsed request object to a `QuerySpec` against `graph`'s time
/// domain and attribute tables. On failure sets `*error` and returns nullopt.
/// The binding matches the CLI flag-for-field: omitted `t2` falls back to
/// `t1` for binary operators, `semantics`/`symmetrize` default like their
/// flags. Unknown keys are ignored.
std::optional<QuerySpec> BindQuerySpec(const TemporalGraph& graph,
                                       const json::Value& request,
                                       RequestOptions* options, std::string* error);

/// Serializes an executed aggregate, deterministically ordered. `top` caps
/// the node and edge row lists (0 = all); the `*_count` fields always report
/// the full sizes.
std::string ResultToJson(const TemporalGraph& graph, const QuerySpec& spec,
                         const QueryPlan& plan, const AggregateGraph& result,
                         std::size_t top);

/// Serializes an executed evolution aggregate: per-tuple (nodes) and
/// per-tuple-pair (edges) stability/growth/shrinkage weights, ordered by
/// total weight descending then tuple codes ascending.
std::string EvolutionToJson(const TemporalGraph& graph, const QuerySpec& spec,
                            const QueryPlan& plan, const EvolutionAggregate& result,
                            std::size_t top);

/// Serializes an exploration result: qualifying interval pairs (already
/// ordered by reference time point) plus the evaluation count.
std::string ExplorationToJson(const TemporalGraph& graph, const QuerySpec& spec,
                              const QueryPlan& plan, const ExplorationResult& result,
                              std::size_t top);

/// Kind-dispatching serialization of a `QueryResult` — what the server's
/// query handler emits. Aggregate results keep the historical byte format.
std::string QueryResultToJson(const TemporalGraph& graph, const QuerySpec& spec,
                              const QueryPlan& plan, const QueryResult& result,
                              std::size_t top);

/// Serializes a plan (the `--explain` answer): fingerprint, route, both cost
/// estimates, and the step list as rendered text lines. Round-trips
/// every field `QueryPlan::Explain` renders, cost-routed plans included.
std::string PlanToJson(const QueryPlan& plan);

}  // namespace graphtempo::engine::wire

#endif  // GRAPHTEMPO_ENGINE_WIRE_H_
