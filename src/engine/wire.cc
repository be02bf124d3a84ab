#include "engine/wire.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/string_util.h"

namespace graphtempo::engine::wire {

namespace {

/// Weight descending, then tuple codes ascending — a total order over
/// aggregate rows, so serialization is deterministic across runs and hosts.
int CompareTuples(const AttrTuple& a, const AttrTuple& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

json::Value TupleToJson(const TemporalGraph& graph, std::span<const AttrRef> attrs,
                        const AttrTuple& tuple) {
  json::Value array = json::Value::Array();
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i] == kNoValue) {
      array.Append(json::Value::Null());
    } else {
      array.Append(json::Value::String(graph.ValueName(attrs[i], tuple[i])));
    }
  }
  return array;
}

std::string FingerprintHex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, fingerprint);
  return buffer;
}

std::string IntervalLabel(const TemporalGraph& graph, const IntervalSet& interval) {
  if (interval.Empty()) return "{}";
  TimeId first = interval.First();
  TimeId last = interval.Last();
  if (first == last) return graph.time_label(first);
  return graph.time_label(first) + ".." + graph.time_label(last);
}

}  // namespace

namespace {

/// Shared `"attrs"` parsing: an array of known attribute names, at most
/// kMaxAttrs. `required` distinguishes aggregate/evolution (≥1 name) from
/// explore (raw-entity counting when omitted).
bool ParseAttrsField(const TemporalGraph& graph, const json::Value& request,
                     bool required, std::vector<AttrRef>* attrs, std::string* error) {
  const json::Value* field = request.Find("attrs");
  if (field == nullptr || !field->is_array() || field->AsArray().empty()) {
    if (!required && (field == nullptr ||
                      (field->is_array() && field->AsArray().empty()))) {
      return true;
    }
    *error = "'attrs' is required (a non-empty array of attribute names)";
    return false;
  }
  for (const json::Value& name : field->AsArray()) {
    if (!name.is_string()) {
      *error = "'attrs' entries must be strings";
      return false;
    }
    std::optional<AttrRef> ref = graph.FindAttribute(name.AsString());
    if (!ref.has_value()) {
      *error = "unknown attribute '" + name.AsString() + "'";
      return false;
    }
    if (attrs->size() >= AttrTuple::kMaxAttrs) {
      *error = "too many attributes (max " + std::to_string(AttrTuple::kMaxAttrs) + ")";
      return false;
    }
    attrs->push_back(*ref);
  }
  return true;
}

/// Shared `"explain"` / `"top"` parsing.
bool ParseRequestOptions(const json::Value& request, RequestOptions* options,
                         std::string* error) {
  if (options == nullptr) return true;
  *options = RequestOptions{};
  if (const json::Value* value = request.Find("explain")) {
    if (!value->is_bool()) {
      *error = "'explain' must be a bool";
      return false;
    }
    options->explain = value->AsBool();
  }
  if (const json::Value* value = request.Find("top")) {
    std::optional<std::uint64_t> top = value->AsUint64();
    if (!top.has_value()) {
      *error = "'top' must be a non-negative integer";
      return false;
    }
    options->top = static_cast<std::size_t>(*top);
  }
  return true;
}

/// Required-interval field helper: missing/ill-typed fields are hard errors.
std::optional<IntervalSet> ParseIntervalField(const TemporalGraph& graph,
                                              const json::Value& request,
                                              const char* name, std::string* error) {
  const json::Value* field = request.Find(name);
  if (field == nullptr || !field->is_string()) {
    *error = std::string("'") + name +
             "' is required (a time point or \"a..b\" range string)";
    return std::nullopt;
  }
  return ParseInterval(graph, field->AsString(), error);
}

std::optional<QuerySpec> BindEvolutionSpec(const TemporalGraph& graph,
                                           const json::Value& request,
                                           RequestOptions* options,
                                           std::string* error) {
  QuerySpec spec;
  spec.kind = QueryKind::kEvolution;
  std::optional<IntervalSet> t1 = ParseIntervalField(graph, request, "t1", error);
  if (!t1.has_value()) return std::nullopt;
  spec.t1 = *t1;
  std::optional<IntervalSet> t2 = ParseIntervalField(graph, request, "t2", error);
  if (!t2.has_value()) return std::nullopt;
  spec.t2 = *t2;
  if (!ParseAttrsField(graph, request, /*required=*/true, &spec.attrs, error)) {
    return std::nullopt;
  }
  if (!ParseRequestOptions(request, options, error)) return std::nullopt;
  return spec;
}

std::optional<QuerySpec> BindExploreSpec(const TemporalGraph& graph,
                                         const json::Value& request,
                                         RequestOptions* options, std::string* error) {
  QuerySpec spec;
  spec.kind = QueryKind::kExplore;
  // The exploration sweep reads every time point; bind t1 to the full domain
  // so DependencyInterval covers exactly what the answer depends on.
  spec.t1 = IntervalSet::All(graph.num_times());

  const json::Value* event = request.Find("event");
  if (event == nullptr || !event->is_string()) {
    *error = "'event' is required (stability|growth|shrinkage)";
    return std::nullopt;
  }
  const std::string event_name = event->AsString();
  if (event_name == "stability") {
    spec.explore.event = EventType::kStability;
  } else if (event_name == "growth") {
    spec.explore.event = EventType::kGrowth;
  } else if (event_name == "shrinkage") {
    spec.explore.event = EventType::kShrinkage;
  } else {
    *error = "unknown event '" + event_name + "' (stability|growth|shrinkage)";
    return std::nullopt;
  }

  std::string extension = "union";
  if (const json::Value* value = request.Find("extension")) {
    if (!value->is_string()) {
      *error = "'extension' must be a string";
      return std::nullopt;
    }
    extension = value->AsString();
  }
  if (extension == "union") {
    spec.explore.semantics = ExtensionSemantics::kUnion;
  } else if (extension == "intersection") {
    spec.explore.semantics = ExtensionSemantics::kIntersection;
  } else {
    *error = "'extension' must be union or intersection, got '" + extension + "'";
    return std::nullopt;
  }

  std::string reference = "new";
  if (const json::Value* value = request.Find("reference")) {
    if (!value->is_string()) {
      *error = "'reference' must be a string";
      return std::nullopt;
    }
    reference = value->AsString();
  }
  if (reference == "old") {
    spec.explore.reference = ReferenceEnd::kOld;
  } else if (reference == "new") {
    spec.explore.reference = ReferenceEnd::kNew;
  } else {
    *error = "'reference' must be old or new, got '" + reference + "'";
    return std::nullopt;
  }

  std::string select = "edges";
  if (const json::Value* value = request.Find("select")) {
    if (!value->is_string()) {
      *error = "'select' must be a string";
      return std::nullopt;
    }
    select = value->AsString();
  }
  if (select == "nodes") {
    spec.explore.selector.kind = EntitySelector::Kind::kNodes;
  } else if (select == "edges") {
    spec.explore.selector.kind = EntitySelector::Kind::kEdges;
  } else {
    *error = "'select' must be nodes or edges, got '" + select + "'";
    return std::nullopt;
  }

  if (const json::Value* value = request.Find("k")) {
    std::optional<std::uint64_t> k = value->AsUint64();
    if (!k.has_value()) {
      *error = "'k' must be a non-negative integer";
      return std::nullopt;
    }
    spec.explore.k = static_cast<Weight>(*k);
  }

  if (!ParseAttrsField(graph, request, /*required=*/false,
                       &spec.explore.selector.attrs, error)) {
    return std::nullopt;
  }
  spec.attrs = spec.explore.selector.attrs;  // mirrored for uniform rendering
  if (!ParseRequestOptions(request, options, error)) return std::nullopt;
  return spec;
}

}  // namespace

std::optional<TimeId> ParseTimePoint(const TemporalGraph& graph, const std::string& text,
                                     std::string* error) {
  if (std::optional<TimeId> t = graph.FindTime(text)) return t;
  std::uint64_t index = 0;
  if (ParseUint64(text, &index) && index < graph.num_times()) {
    return static_cast<TimeId>(index);
  }
  if (error != nullptr) *error = "unknown time point '" + text + "'";
  return std::nullopt;
}

std::optional<IntervalSet> ParseInterval(const TemporalGraph& graph,
                                         const std::string& text, std::string* error) {
  std::size_t dots = text.find("..");
  if (dots == std::string::npos) {
    std::optional<TimeId> t = ParseTimePoint(graph, text, error);
    if (!t.has_value()) return std::nullopt;
    return IntervalSet::Point(graph.num_times(), *t);
  }
  // Short-circuit on the first bad endpoint: one malformed range must produce
  // exactly one diagnostic, not one per endpoint.
  std::optional<TimeId> first = ParseTimePoint(graph, text.substr(0, dots), error);
  if (!first.has_value()) return std::nullopt;
  std::optional<TimeId> last = ParseTimePoint(graph, text.substr(dots + 2), error);
  if (!last.has_value()) return std::nullopt;
  if (*first > *last) {
    if (error != nullptr) *error = "inverted range '" + text + "'";
    return std::nullopt;
  }
  return IntervalSet::Range(graph.num_times(), *first, *last);
}

std::optional<QuerySpec> BindQuerySpec(const TemporalGraph& graph,
                                       const json::Value& request,
                                       RequestOptions* options, std::string* error) {
  if (!request.is_object()) {
    *error = "request must be a JSON object";
    return std::nullopt;
  }

  QuerySpec spec;

  std::string kind = "aggregate";
  if (const json::Value* value = request.Find("kind")) {
    if (!value->is_string()) {
      *error = "'kind' must be a string";
      return std::nullopt;
    }
    kind = value->AsString();
  }
  if (kind == "evolution") {
    return BindEvolutionSpec(graph, request, options, error);
  }
  if (kind == "explore") {
    return BindExploreSpec(graph, request, options, error);
  }
  if (kind != "aggregate") {
    *error = "unknown kind '" + kind + "' (aggregate|evolution|explore)";
    return std::nullopt;
  }

  std::string op = "union";
  if (const json::Value* value = request.Find("op")) {
    if (!value->is_string()) {
      *error = "'op' must be a string";
      return std::nullopt;
    }
    op = value->AsString();
  }
  if (op == "project") {
    spec.op = TemporalOperatorKind::kProject;
  } else if (op == "union") {
    spec.op = TemporalOperatorKind::kUnion;
  } else if (op == "intersection") {
    spec.op = TemporalOperatorKind::kIntersection;
  } else if (op == "difference") {
    spec.op = TemporalOperatorKind::kDifference;
  } else {
    *error = "unknown op '" + op + "' (union|intersection|difference|project)";
    return std::nullopt;
  }

  const json::Value* t1 = request.Find("t1");
  if (t1 == nullptr || !t1->is_string()) {
    *error = "'t1' is required (a time point or \"a..b\" range string)";
    return std::nullopt;
  }
  std::optional<IntervalSet> t1_parsed = ParseInterval(graph, t1->AsString(), error);
  if (!t1_parsed.has_value()) return std::nullopt;
  spec.t1 = *t1_parsed;

  if (spec.op != TemporalOperatorKind::kProject) {
    if (const json::Value* t2 = request.Find("t2")) {
      if (!t2->is_string()) {
        *error = "'t2' must be a string";
        return std::nullopt;
      }
      std::optional<IntervalSet> t2_parsed = ParseInterval(graph, t2->AsString(), error);
      if (!t2_parsed.has_value()) return std::nullopt;
      spec.t2 = *t2_parsed;
    } else {
      spec.t2 = *t1_parsed;  // like the CLI: --t2 falls back to --t1
    }
  }

  const json::Value* attrs = request.Find("attrs");
  if (attrs == nullptr || !attrs->is_array() || attrs->AsArray().empty()) {
    *error = "'attrs' is required (a non-empty array of attribute names)";
    return std::nullopt;
  }
  for (const json::Value& name : attrs->AsArray()) {
    if (!name.is_string()) {
      *error = "'attrs' entries must be strings";
      return std::nullopt;
    }
    std::optional<AttrRef> ref = graph.FindAttribute(name.AsString());
    if (!ref.has_value()) {
      *error = "unknown attribute '" + name.AsString() + "'";
      return std::nullopt;
    }
    if (spec.attrs.size() >= AttrTuple::kMaxAttrs) {
      *error = "too many attributes (max " + std::to_string(AttrTuple::kMaxAttrs) + ")";
      return std::nullopt;
    }
    spec.attrs.push_back(*ref);
  }

  std::string semantics = "dist";
  if (const json::Value* value = request.Find("semantics")) {
    if (!value->is_string()) {
      *error = "'semantics' must be a string";
      return std::nullopt;
    }
    semantics = value->AsString();
  }
  if (semantics == "dist") {
    spec.semantics = AggregationSemantics::kDistinct;
  } else if (semantics == "all") {
    spec.semantics = AggregationSemantics::kAll;
  } else {
    *error = "'semantics' must be dist or all, got '" + semantics + "'";
    return std::nullopt;
  }

  if (const json::Value* value = request.Find("symmetrize")) {
    if (!value->is_bool()) {
      *error = "'symmetrize' must be a bool";
      return std::nullopt;
    }
    spec.symmetrize = value->AsBool();
  }

  if (options != nullptr) {
    *options = RequestOptions{};
    if (const json::Value* value = request.Find("explain")) {
      if (!value->is_bool()) {
        *error = "'explain' must be a bool";
        return std::nullopt;
      }
      options->explain = value->AsBool();
    }
    if (const json::Value* value = request.Find("top")) {
      std::optional<std::uint64_t> top = value->AsUint64();
      if (!top.has_value()) {
        *error = "'top' must be a non-negative integer";
        return std::nullopt;
      }
      options->top = static_cast<std::size_t>(*top);
    }
  }
  return spec;
}

std::string ResultToJson(const TemporalGraph& graph, const QuerySpec& spec,
                         const QueryPlan& plan, const AggregateGraph& result,
                         std::size_t top) {
  std::vector<std::pair<AttrTuple, Weight>> nodes(result.nodes().begin(),
                                                  result.nodes().end());
  std::sort(nodes.begin(), nodes.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return CompareTuples(a.first, b.first) < 0;
  });
  std::vector<std::pair<AttrTuplePair, Weight>> edges(result.edges().begin(),
                                                      result.edges().end());
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    int src = CompareTuples(a.first.src, b.first.src);
    if (src != 0) return src < 0;
    return CompareTuples(a.first.dst, b.first.dst) < 0;
  });

  json::Value response = json::Value::Object();
  response.Set("fingerprint", json::Value::String(FingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(PlanRouteName(plan.route)));
  response.Set("interval",
               json::Value::String(IntervalLabel(graph, spec.EvaluationInterval())));
  response.Set("semantics",
               json::Value::String(
                   spec.semantics == AggregationSemantics::kDistinct ? "DIST" : "ALL"));
  response.Set("node_count", json::Value::Number(static_cast<std::uint64_t>(nodes.size())));
  response.Set("edge_count", json::Value::Number(static_cast<std::uint64_t>(edges.size())));

  json::Value node_rows = json::Value::Array();
  std::size_t node_limit = top == 0 ? nodes.size() : std::min(top, nodes.size());
  for (std::size_t i = 0; i < node_limit; ++i) {
    json::Value row = json::Value::Object();
    row.Set("tuple", TupleToJson(graph, spec.attrs, nodes[i].first));
    row.Set("weight", json::Value::Number(static_cast<std::int64_t>(nodes[i].second)));
    node_rows.Append(std::move(row));
  }
  response.Set("nodes", std::move(node_rows));

  json::Value edge_rows = json::Value::Array();
  std::size_t edge_limit = top == 0 ? edges.size() : std::min(top, edges.size());
  for (std::size_t i = 0; i < edge_limit; ++i) {
    json::Value row = json::Value::Object();
    row.Set("src", TupleToJson(graph, spec.attrs, edges[i].first.src));
    row.Set("dst", TupleToJson(graph, spec.attrs, edges[i].first.dst));
    row.Set("weight", json::Value::Number(static_cast<std::int64_t>(edges[i].second)));
    edge_rows.Append(std::move(row));
  }
  response.Set("edges", std::move(edge_rows));
  return response.Serialize();
}

std::string EvolutionToJson(const TemporalGraph& graph, const QuerySpec& spec,
                            const QueryPlan& plan, const EvolutionAggregate& result,
                            std::size_t top) {
  // Total weight descending, then tuple codes ascending — the same total
  // order discipline as aggregate rows, so responses are byte-deterministic.
  auto total = [](const EvolutionWeights& w) {
    return w.stability + w.growth + w.shrinkage;
  };
  std::vector<std::pair<AttrTuple, EvolutionWeights>> nodes(result.nodes().begin(),
                                                            result.nodes().end());
  std::sort(nodes.begin(), nodes.end(), [&](const auto& a, const auto& b) {
    if (total(a.second) != total(b.second)) return total(a.second) > total(b.second);
    return CompareTuples(a.first, b.first) < 0;
  });
  std::vector<std::pair<AttrTuplePair, EvolutionWeights>> edges(result.edges().begin(),
                                                                result.edges().end());
  std::sort(edges.begin(), edges.end(), [&](const auto& a, const auto& b) {
    if (total(a.second) != total(b.second)) return total(a.second) > total(b.second);
    int src = CompareTuples(a.first.src, b.first.src);
    if (src != 0) return src < 0;
    return CompareTuples(a.first.dst, b.first.dst) < 0;
  });

  json::Value response = json::Value::Object();
  response.Set("kind", json::Value::String("evolution"));
  response.Set("fingerprint", json::Value::String(FingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(PlanRouteName(plan.route)));
  response.Set("old", json::Value::String(IntervalLabel(graph, spec.t1)));
  response.Set("new", json::Value::String(IntervalLabel(graph, spec.t2)));
  response.Set("node_count", json::Value::Number(static_cast<std::uint64_t>(nodes.size())));
  response.Set("edge_count", json::Value::Number(static_cast<std::uint64_t>(edges.size())));

  auto weights_fields = [](json::Value* row, const EvolutionWeights& w) {
    row->Set("stability", json::Value::Number(static_cast<std::int64_t>(w.stability)));
    row->Set("growth", json::Value::Number(static_cast<std::int64_t>(w.growth)));
    row->Set("shrinkage", json::Value::Number(static_cast<std::int64_t>(w.shrinkage)));
  };

  json::Value node_rows = json::Value::Array();
  std::size_t node_limit = top == 0 ? nodes.size() : std::min(top, nodes.size());
  for (std::size_t i = 0; i < node_limit; ++i) {
    json::Value row = json::Value::Object();
    row.Set("tuple", TupleToJson(graph, spec.attrs, nodes[i].first));
    weights_fields(&row, nodes[i].second);
    node_rows.Append(std::move(row));
  }
  response.Set("nodes", std::move(node_rows));

  json::Value edge_rows = json::Value::Array();
  std::size_t edge_limit = top == 0 ? edges.size() : std::min(top, edges.size());
  for (std::size_t i = 0; i < edge_limit; ++i) {
    json::Value row = json::Value::Object();
    row.Set("src", TupleToJson(graph, spec.attrs, edges[i].first.src));
    row.Set("dst", TupleToJson(graph, spec.attrs, edges[i].first.dst));
    weights_fields(&row, edges[i].second);
    edge_rows.Append(std::move(row));
  }
  response.Set("edges", std::move(edge_rows));
  return response.Serialize();
}

std::string ExplorationToJson(const TemporalGraph& graph, const QuerySpec& spec,
                              const QueryPlan& plan, const ExplorationResult& result,
                              std::size_t top) {
  json::Value response = json::Value::Object();
  response.Set("kind", json::Value::String("explore"));
  response.Set("fingerprint", json::Value::String(FingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(PlanRouteName(plan.route)));
  response.Set("event", json::Value::String(EventTypeName(spec.explore.event)));
  response.Set("extension",
               json::Value::String(spec.explore.semantics == ExtensionSemantics::kUnion
                                       ? "union"
                                       : "intersection"));
  response.Set("reference",
               json::Value::String(spec.explore.reference == ReferenceEnd::kOld
                                       ? "old"
                                       : "new"));
  response.Set("k", json::Value::Number(static_cast<std::uint64_t>(spec.explore.k)));
  response.Set("pair_count",
               json::Value::Number(static_cast<std::uint64_t>(result.pairs.size())));
  response.Set("evaluations",
               json::Value::Number(static_cast<std::uint64_t>(result.evaluations)));

  auto range_label = [&](TimeRange range) {
    if (range.first == range.last) return graph.time_label(range.first);
    return graph.time_label(range.first) + ".." + graph.time_label(range.last);
  };
  json::Value pair_rows = json::Value::Array();
  std::size_t limit = top == 0 ? result.pairs.size() : std::min(top, result.pairs.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const IntervalPair& pair = result.pairs[i];
    json::Value row = json::Value::Object();
    row.Set("old", json::Value::String(range_label(pair.old_range)));
    row.Set("new", json::Value::String(range_label(pair.new_range)));
    row.Set("count", json::Value::Number(static_cast<std::int64_t>(pair.count)));
    pair_rows.Append(std::move(row));
  }
  response.Set("pairs", std::move(pair_rows));
  return response.Serialize();
}

std::string QueryResultToJson(const TemporalGraph& graph, const QuerySpec& spec,
                              const QueryPlan& plan, const QueryResult& result,
                              std::size_t top) {
  switch (result.kind) {
    case QueryKind::kAggregate:
      return ResultToJson(graph, spec, plan, result.aggregate, top);
    case QueryKind::kEvolution:
      return EvolutionToJson(graph, spec, plan, result.evolution, top);
    case QueryKind::kExplore:
      return ExplorationToJson(graph, spec, plan, result.exploration, top);
  }
  return "{}";
}

std::string PlanToJson(const QueryPlan& plan) {
  json::Value response = json::Value::Object();
  response.Set("fingerprint", json::Value::String(FingerprintHex(plan.fingerprint)));
  response.Set("route", json::Value::String(PlanRouteName(plan.route)));
  response.Set("cacheable", json::Value::Bool(plan.cacheable));
  response.Set("stale_fallback", json::Value::Bool(plan.stale_fallback));
  response.Set("cost_direct_us", json::Value::Number(plan.cost.direct_us));
  if (plan.cost.materialized_us >= 0.0) {
    response.Set("cost_materialized_us", json::Value::Number(plan.cost.materialized_us));
  } else {
    response.Set("cost_materialized_us", json::Value::Null());
  }
  json::Value steps = json::Value::Array();
  for (const PlanStep& step : plan.steps) {
    json::Value row = json::Value::Object();
    row.Set("kind", json::Value::String(step.kind));
    row.Set("detail", json::Value::String(step.detail));
    steps.Append(std::move(row));
  }
  response.Set("steps", std::move(steps));
  response.Set("explain", json::Value::String(plan.Explain()));
  return response.Serialize();
}

}  // namespace graphtempo::engine::wire
