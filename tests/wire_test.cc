#include "engine/wire.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "test_graphs.h"
#include "util/json.h"

namespace graphtempo::engine::wire {
namespace {

class WireTest : public ::testing::Test {
 protected:
  WireTest() : graph_(graphtempo::testing::BuildPaperGraph()) {}

  json::Value Request(const std::string& text) {
    std::string error;
    std::optional<json::Value> parsed = json::Parse(text, &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    return std::move(*parsed);
  }

  TemporalGraph graph_;
};

// --- ParseTimePoint / ParseInterval ------------------------------------------------

TEST_F(WireTest, TimePointByLabelAndIndex) {
  std::string error;
  EXPECT_EQ(ParseTimePoint(graph_, "t1", &error), TimeId{1});
  EXPECT_EQ(ParseTimePoint(graph_, "2", &error), TimeId{2});
}

TEST_F(WireTest, UnknownTimePointSetsDiagnostic) {
  std::string error;
  EXPECT_FALSE(ParseTimePoint(graph_, "t9", &error).has_value());
  EXPECT_EQ(error, "unknown time point 't9'");
}

TEST_F(WireTest, IntervalPointAndRange) {
  std::string error;
  std::optional<IntervalSet> point = ParseInterval(graph_, "t1", &error);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->First(), TimeId{1});
  EXPECT_EQ(point->Last(), TimeId{1});
  std::optional<IntervalSet> range = ParseInterval(graph_, "t0..t2", &error);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->First(), TimeId{0});
  EXPECT_EQ(range->Last(), TimeId{2});
}

// Regression: both endpoints used to be parsed even after the first failed,
// producing two diagnostics for one bad range. The parse must short-circuit.
TEST_F(WireTest, BadFirstEndpointShortCircuits) {
  std::string error;
  EXPECT_FALSE(ParseInterval(graph_, "t7..t9", &error).has_value());
  EXPECT_EQ(error, "unknown time point 't7'");  // only the first endpoint
}

TEST_F(WireTest, BadSecondEndpointReported) {
  std::string error;
  EXPECT_FALSE(ParseInterval(graph_, "t0..t9", &error).has_value());
  EXPECT_EQ(error, "unknown time point 't9'");
}

TEST_F(WireTest, InvertedRangeRejected) {
  std::string error;
  EXPECT_FALSE(ParseInterval(graph_, "t2..t0", &error).has_value());
  EXPECT_EQ(error, "inverted range 't2..t0'");
}

// --- BindQuerySpec -----------------------------------------------------------------

TEST_F(WireTest, BindsMinimalRequestWithDefaults) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"t1":"t0","attrs":["gender"]})"), &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->op, TemporalOperatorKind::kUnion);
  EXPECT_EQ(spec->semantics, AggregationSemantics::kDistinct);
  EXPECT_FALSE(spec->symmetrize);
  EXPECT_EQ(spec->t2, spec->t1);  // t2 falls back to t1, like the CLI
  EXPECT_FALSE(options.explain);
  EXPECT_EQ(options.top, 0u);
}

TEST_F(WireTest, BindsFullRequest) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"op":"intersection","t1":"t0..t1","t2":"t2",
                  "attrs":["gender","publications"],"semantics":"all",
                  "symmetrize":true,"explain":true,"top":5})"),
      &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->op, TemporalOperatorKind::kIntersection);
  EXPECT_EQ(spec->semantics, AggregationSemantics::kAll);
  EXPECT_TRUE(spec->symmetrize);
  EXPECT_EQ(spec->attrs.size(), 2u);
  EXPECT_TRUE(options.explain);
  EXPECT_EQ(options.top, 5u);
}

TEST_F(WireTest, BindIgnoresRetiredGroupingKey) {
  // Grouping is chosen from the attribute domains alone; an old client's
  // "grouping" key — any value — binds to the same query as its absence.
  std::string error;
  std::optional<QuerySpec> plain = BindQuerySpec(
      graph_, Request(R"({"t1":"t0","attrs":["gender"]})"), nullptr, &error);
  ASSERT_TRUE(plain.has_value()) << error;
  for (const char* grouping : {R"("dense")", R"("hash")", R"("bogus")", "7"}) {
    std::optional<QuerySpec> hinted = BindQuerySpec(
        graph_,
        Request(std::string(R"({"t1":"t0","attrs":["gender"],"grouping":)") +
                grouping + "}"),
        nullptr, &error);
    ASSERT_TRUE(hinted.has_value()) << grouping << ": " << error;
    EXPECT_TRUE(hinted->EquivalentTo(*plain)) << grouping;
    EXPECT_EQ(hinted->Fingerprint(), plain->Fingerprint()) << grouping;
  }
}

TEST_F(WireTest, BindRejectsMissingFields) {
  std::string error;
  EXPECT_FALSE(
      BindQuerySpec(graph_, Request(R"({"attrs":["gender"]})"), nullptr, &error)
          .has_value());
  EXPECT_NE(error.find("'t1' is required"), std::string::npos);
  EXPECT_FALSE(
      BindQuerySpec(graph_, Request(R"({"t1":"t0"})"), nullptr, &error).has_value());
  EXPECT_NE(error.find("'attrs' is required"), std::string::npos);
}

TEST_F(WireTest, BindRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(BindQuerySpec(graph_,
                             Request(R"({"op":"smoosh","t1":"t0","attrs":["gender"]})"),
                             nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("unknown op 'smoosh'"), std::string::npos);
  EXPECT_FALSE(
      BindQuerySpec(graph_, Request(R"({"t1":"t0","attrs":["nope"]})"), nullptr, &error)
          .has_value());
  EXPECT_NE(error.find("unknown attribute 'nope'"), std::string::npos);
  EXPECT_FALSE(BindQuerySpec(
                   graph_,
                   Request(R"({"t1":"t0","attrs":["gender"],"semantics":"some"})"),
                   nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("'semantics' must be dist or all"), std::string::npos);
}

TEST_F(WireTest, BindRejectsNonObject) {
  std::string error;
  EXPECT_FALSE(BindQuerySpec(graph_, Request("[1,2]"), nullptr, &error).has_value());
  EXPECT_NE(error.find("must be a JSON object"), std::string::npos);
}

// --- ResultToJson / PlanToJson -----------------------------------------------------

TEST_F(WireTest, ResultSerializationIsDeterministic) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender","publications"]})"),
      nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;

  QueryEngine engine_a(&graph_);
  QueryEngine engine_b(&graph_);
  std::string a = ResultToJson(graph_, *spec, engine_a.Plan(*spec),
                               engine_a.Execute(*spec), 0);
  std::string b = ResultToJson(graph_, *spec, engine_b.Plan(*spec),
                               engine_b.Execute(*spec), 0);
  EXPECT_EQ(a, b);  // independent engines, identical bytes

  std::optional<json::Value> parsed = json::Parse(a, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("semantics")->AsString(), "DIST");
  EXPECT_EQ(parsed->Find("route")->AsString(), "direct");
}

TEST_F(WireTest, TopCapsRowsButNotCounts) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender","publications"]})"),
      nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  QueryEngine engine(&graph_);
  AggregateGraph result = engine.Execute(*spec);
  std::string capped = ResultToJson(graph_, *spec, engine.Plan(*spec), result, 1);
  std::optional<json::Value> parsed = json::Parse(capped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("nodes")->AsArray().size(), 1u);
  EXPECT_EQ(parsed->Find("node_count")->AsUint64().value_or(0),
            result.NodeCount());  // counts report full sizes
}

TEST_F(WireTest, PlanToJsonRoundTripsCostRoutedPlans) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"op":"union","t1":"t0..t1","attrs":["gender"],
                          "semantics":"all"})"),
      nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;

  QueryEngine engine(&graph_);
  engine.EnableMaterialization(ResolveAttributes(graph_, {"gender", "publications"}));

  std::optional<json::Value> parsed =
      json::Parse(PlanToJson(engine.Plan(*spec)), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("planner"), nullptr);  // one planner: nothing to name
  ASSERT_TRUE(parsed->Find("cost_direct_us")->is_number());
  EXPECT_GT(parsed->Find("cost_direct_us")->AsDouble(), 0.0);
  // Derivable spec with a fresh store: the materialized estimate is real.
  ASSERT_TRUE(parsed->Find("cost_materialized_us")->is_number());
  EXPECT_GT(parsed->Find("cost_materialized_us")->AsDouble(), 0.0);
  EXPECT_NE(parsed->Find("explain")->AsString().find("estimate direct="),
            std::string::npos);

  // Without a store the materialized route is unavailable: null on the wire.
  QueryEngine bare(&graph_);
  std::optional<json::Value> unpriced =
      json::Parse(PlanToJson(bare.Plan(*spec)), &error);
  ASSERT_TRUE(unpriced.has_value()) << error;
  EXPECT_TRUE(unpriced->Find("cost_materialized_us")->is_null());
  EXPECT_EQ(unpriced->Find("route")->AsString(), "direct");
}

TEST_F(WireTest, BindsEvolutionKind) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"kind":"evolution","t1":"t0..t1","t2":"t2","attrs":["gender"]})"),
      &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->kind, QueryKind::kEvolution);
  EXPECT_EQ(spec->t1.First(), TimeId{0});
  EXPECT_EQ(spec->t2.First(), TimeId{2});

  QueryEngine engine(&graph_);
  const QueryResult result = engine.ExecuteResult(*spec);
  std::optional<json::Value> parsed = json::Parse(
      QueryResultToJson(graph_, *spec, engine.Plan(*spec), result, 0), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("kind")->AsString(), "evolution");
  EXPECT_GE(parsed->Find("nodes")->AsArray().size(), 1u);

  // Evolution requires both intervals explicitly — no t2-defaults-to-t1.
  EXPECT_FALSE(BindQuerySpec(graph_,
                             Request(R"({"kind":"evolution","t1":"t0",
                                         "attrs":["gender"]})"),
                             nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("'t2' is required"), std::string::npos);
}

TEST_F(WireTest, BindsExploreKind) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"kind":"explore","event":"growth","select":"edges","k":1})"),
      &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->kind, QueryKind::kExplore);
  EXPECT_EQ(spec->explore.event, EventType::kGrowth);
  // The sweep reads every time point: t1 is bound to the full domain.
  EXPECT_EQ(spec->t1, IntervalSet::All(graph_.num_times()));

  QueryEngine engine(&graph_);
  const QueryResult result = engine.ExecuteResult(*spec);
  std::optional<json::Value> parsed = json::Parse(
      QueryResultToJson(graph_, *spec, engine.Plan(*spec), result, 0), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("kind")->AsString(), "explore");
  EXPECT_TRUE(parsed->Find("pairs")->is_array());

  EXPECT_FALSE(BindQuerySpec(graph_, Request(R"({"kind":"wander","t1":"t0"})"),
                             nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("unknown kind 'wander'"), std::string::npos);
}

TEST_F(WireTest, AggregateResponsesKeepHistoricalShape) {
  // The aggregate wire format predates query kinds; adding a "kind" field to
  // it would break byte-compatibility with recorded responses.
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"t1":"t0","attrs":["gender"]})"), nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  QueryEngine engine(&graph_);
  std::optional<json::Value> parsed = json::Parse(
      ResultToJson(graph_, *spec, engine.Plan(*spec), engine.Execute(*spec), 0),
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("kind"), nullptr);
  EXPECT_NE(parsed->Find("route"), nullptr);
}

TEST_F(WireTest, PlanToJsonCarriesRouteAndSteps) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"t1":"t0","attrs":["gender"]})"), nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  QueryEngine engine(&graph_);
  std::string plan_json = PlanToJson(engine.Plan(*spec));
  std::optional<json::Value> parsed = json::Parse(plan_json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("route")->AsString(), "direct");
  EXPECT_FALSE(parsed->Find("stale_fallback")->AsBool());
  EXPECT_GE(parsed->Find("steps")->AsArray().size(), 2u);
  EXPECT_NE(parsed->Find("explain")->AsString().find("route=direct"),
            std::string::npos);
}

}  // namespace
}  // namespace graphtempo::engine::wire
