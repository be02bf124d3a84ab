#include "server/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "accel/backend.h"
#include "core/aggregation.h"
#include "engine/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/http.h"
#include "server/ingest.h"
#include "test_graphs.h"
#include "util/json.h"

namespace graphtempo::server {
namespace {

using namespace std::chrono_literals;

/// Fixture owning a paper-example graph, engine and running server.
class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : graph_(graphtempo::testing::BuildPaperGraph()), engine_(&graph_) {}

  void StartServer(ServerConfig config = {}) {
    server_.emplace(&graph_, &engine_, config);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_GT(server_->port(), 0);
  }

  HttpResponse Fetch(const std::string& method, const std::string& path,
                     const std::string& body = "") {
    std::string error;
    std::optional<HttpResponse> response =
        HttpFetch("127.0.0.1", server_->port(), method, path, body, &error);
    EXPECT_TRUE(response.has_value()) << error;
    return response.value_or(HttpResponse{});
  }

  json::Value FetchJson(const std::string& method, const std::string& path,
                        const std::string& body = "", int expect_status = 200) {
    HttpResponse response = Fetch(method, path, body);
    EXPECT_EQ(response.status, expect_status) << response.body;
    std::string error;
    std::optional<json::Value> parsed = json::Parse(response.body, &error);
    EXPECT_TRUE(parsed.has_value()) << error << ": " << response.body;
    return parsed.has_value() ? std::move(*parsed) : json::Value::Object();
  }

  /// Polls /stats until the ingestion writer has grown the time domain.
  void WaitForTimePoints(std::uint64_t expected) {
    for (int i = 0; i < 200; ++i) {
      json::Value stats = FetchJson("GET", "/stats");
      if (stats.Find("num_times")->AsUint64().value_or(0) >= expected) return;
      std::this_thread::sleep_for(10ms);
    }
    FAIL() << "ingestion writer never reached " << expected << " time points";
  }

  TemporalGraph graph_;
  engine::QueryEngine engine_;
  std::optional<Server> server_;
};

TEST_F(ServerTest, HealthzAnswersOk) {
  StartServer();
  HttpResponse response = Fetch("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST_F(ServerTest, MetricsServesRegistrySnapshot) {
  StartServer();
  json::Value metrics = FetchJson("GET", "/metrics");
  EXPECT_NE(metrics.Find("generation"), nullptr);
  EXPECT_NE(metrics.Find("counters"), nullptr);
  EXPECT_NE(metrics.Find("histograms"), nullptr);
}

TEST_F(ServerTest, UnknownPathIs404WrongMethodIs405) {
  StartServer();
  EXPECT_EQ(Fetch("GET", "/nope").status, 404);
  EXPECT_EQ(Fetch("POST", "/healthz").status, 405);
  EXPECT_EQ(Fetch("GET", "/query").status, 405);
}

TEST_F(ServerTest, BadRequestsAre400) {
  StartServer();
  EXPECT_EQ(Fetch("POST", "/query", "{not json").status, 400);
  EXPECT_EQ(Fetch("POST", "/query", R"({"attrs":["gender"]})").status, 400);
  EXPECT_EQ(Fetch("POST", "/query", R"({"t1":"t9","attrs":["gender"]})").status, 400);
  EXPECT_EQ(Fetch("POST", "/ingest", "bogus line\n").status, 400);
}

// The differential guarantee: a wire-served answer is byte-identical to
// serializing a direct engine call for the same spec. Any drift between the
// server path and the library path fails here.
TEST_F(ServerTest, WireAnswersMatchDirectEngineCallsByteForByte) {
  StartServer();
  const char* requests[] = {
      R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender","publications"]})",
      R"({"op":"intersection","t1":"t0","t2":"t1","attrs":["gender"]})",
      R"({"op":"difference","t1":"t1","t2":"t0","attrs":["gender"],"semantics":"all"})",
      R"({"op":"project","t1":"t0..t2","attrs":["publications"]})",
  };
  TemporalGraph reference_graph = graphtempo::testing::BuildPaperGraph();
  engine::QueryEngine reference_engine(&reference_graph);
  for (const char* request : requests) {
    HttpResponse served = Fetch("POST", "/query", request);
    ASSERT_EQ(served.status, 200) << request << ": " << served.body;

    std::string error;
    std::optional<json::Value> parsed = json::Parse(request, &error);
    ASSERT_TRUE(parsed.has_value());
    engine::wire::RequestOptions options;
    std::optional<engine::QuerySpec> spec =
        engine::wire::BindQuerySpec(reference_graph, *parsed, &options, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    std::string direct = engine::wire::ResultToJson(
        reference_graph, *spec, reference_engine.Plan(*spec),
        reference_engine.Execute(*spec), options.top);
    EXPECT_EQ(served.body, direct) << request;
  }
}

// Regression: a request's "grouping":"dense" used to force the dense table,
// and on an attribute set whose edge domain exceeds kDenseEdgePairsMax the
// forced path aborted the whole server. The key is no longer bound: the
// answer is byte-identical to the request without it and the server stays up.
TEST(ServerGroupingTest, RetiredDenseHintOnAWideDomainAnswersLikeNoHint) {
  TemporalGraph graph = graphtempo::testing::BuildRandomGraph(
      /*seed=*/23, /*num_nodes=*/300, /*num_times=*/4, /*presence_p=*/0.5,
      /*colors=*/40, /*levels=*/30, /*edge_p=*/0.05);
  ASSERT_FALSE(
      ResolveGrouping(graph, ResolveAttributes(graph, {"color", "level"})).dense_edges)
      << "the edge domain must be too wide for the dense table";
  engine::QueryEngine engine(&graph);
  Server server(&graph, &engine, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto fetch = [&](const std::string& method, const std::string& path,
                   const std::string& body) {
    std::optional<HttpResponse> response =
        HttpFetch("127.0.0.1", server.port(), method, path, body, &error);
    EXPECT_TRUE(response.has_value()) << error;
    return response.value_or(HttpResponse{});
  };

  // The hinted request goes first, so it is the one that executes.
  HttpResponse hinted = fetch(
      "POST", "/query",
      R"({"op":"project","t1":"t0","attrs":["color","level"],"grouping":"dense"})");
  ASSERT_EQ(hinted.status, 200) << hinted.body;
  HttpResponse plain =
      fetch("POST", "/query", R"({"op":"project","t1":"t0","attrs":["color","level"]})");
  ASSERT_EQ(plain.status, 200) << plain.body;
  EXPECT_EQ(hinted.body, plain.body);
  HttpResponse health = fetch("GET", "/healthz", "");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
}

TEST_F(ServerTest, ExplainReturnsPlanNotRows) {
  StartServer();
  json::Value plan = FetchJson(
      "POST", "/query", R"({"t1":"t0","attrs":["gender"],"explain":true})");
  EXPECT_NE(plan.Find("route"), nullptr);
  EXPECT_NE(plan.Find("steps"), nullptr);
  EXPECT_EQ(plan.Find("nodes"), nullptr);  // a plan, not a result
}

TEST_F(ServerTest, IngestAppliesAsynchronouslyAndServesNewPoint) {
  StartServer();
  json::Value accepted = FetchJson(
      "POST", "/ingest", "t t3\ne Mary John t3\nn Anna t3\n", 202);
  EXPECT_EQ(accepted.Find("accepted")->AsUint64().value_or(0), 3u);
  WaitForTimePoints(4);
  HttpResponse response =
      Fetch("POST", "/query", R"({"op":"project","t1":"t3","attrs":["gender"]})");
  EXPECT_EQ(response.status, 200) << response.body;
}

TEST_F(ServerTest, AppendOnlyIngestInvalidatesNoCachedAnswer) {
  StartServer();
  const char* old_interval_query =
      R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender"]})";
  HttpResponse before = Fetch("POST", "/query", old_interval_query);
  ASSERT_EQ(before.status, 200);
  FetchJson("POST", "/ingest", "t t3\ne Mary John t3\n", 202);
  WaitForTimePoints(4);
  HttpResponse after = Fetch("POST", "/query", old_interval_query);
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(before.body, after.body);  // the old interval is untouched
  engine::QueryEngine::CacheStats stats = engine_.cache_stats();
  EXPECT_EQ(stats.invalidations, 0u);  // per-entry invalidation spared it
  EXPECT_GE(stats.hits, 1u);           // and the second answer was a cache hit
}

TEST_F(ServerTest, RateLimiterAnswers429) {
  ServerConfig config;
  config.rate_limit_qps = 0.001;  // refills far slower than the test runs
  config.rate_limit_burst = 2;
  StartServer(config);
  const char* query = R"({"t1":"t0","attrs":["gender"]})";
  EXPECT_EQ(Fetch("POST", "/query", query).status, 200);
  EXPECT_EQ(Fetch("POST", "/query", query).status, 200);
  EXPECT_EQ(Fetch("POST", "/query", query).status, 429);  // bucket empty
  EXPECT_EQ(Fetch("GET", "/metrics").status, 200);  // other endpoints unaffected
}

TEST_F(ServerTest, ShutdownEndpointRequestsShutdown) {
  StartServer();
  EXPECT_FALSE(server_->shutdown_requested());
  json::Value response = FetchJson("POST", "/shutdown");
  EXPECT_TRUE(response.Find("shutting_down")->AsBool());
  EXPECT_TRUE(server_->shutdown_requested());
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, SseStreamDeliversEvolutionEvents) {
  StartServer();
  std::string error;
  int fd = ConnectTcp("127.0.0.1", server_->port(), &error);
  ASSERT_GE(fd, 0) << error;
  std::string subscribe = "GET /events HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  ASSERT_TRUE(WriteRaw(fd, subscribe));

  auto read_until = [&](const std::string& needle, std::string* buffer) {
    auto deadline = std::chrono::steady_clock::now() + 5s;
    while (buffer->find(needle) == std::string::npos) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      char chunk[2048];
      ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) return false;
      buffer->append(chunk, static_cast<std::size_t>(got));
    }
    return true;
  };
  std::string buffer;
  ASSERT_TRUE(read_until("event: hello", &buffer)) << buffer;

  FetchJson("POST", "/ingest", "t t3\ne Mary John t3\n", 202);
  ASSERT_TRUE(read_until("event: evolution", &buffer)) << buffer;
  // The payload carries growth/shrinkage/stability between t2 and t3.
  std::size_t data_at = buffer.find("data: ", buffer.find("event: evolution"));
  ASSERT_NE(data_at, std::string::npos);
  std::size_t line_end = buffer.find('\n', data_at);
  std::string payload = buffer.substr(data_at + 6, line_end - data_at - 6);
  std::optional<json::Value> event = json::Parse(payload, &error);
  ASSERT_TRUE(event.has_value()) << error << ": " << payload;
  EXPECT_EQ(event->Find("latest")->AsString(), "t3");
  EXPECT_NE(event->Find("nodes")->Find("stability"), nullptr);
  EXPECT_NE(event->Find("edges")->Find("growth"), nullptr);
  ::close(fd);
}

TEST_F(ServerTest, IngestLogReplayRestoresState) {
  std::string log_path = ::testing::TempDir() + "/gt_ingest_log_" +
                         std::to_string(getpid()) + ".log";
  std::remove(log_path.c_str());
  {
    ServerConfig config;
    config.ingest_log_path = log_path;
    StartServer(config);
    FetchJson("POST", "/ingest", "t t3\ne Mary John t3\n", 202);
    WaitForTimePoints(4);
    server_->Shutdown();
    server_.reset();
  }
  // A fresh graph + server over the same log resumes from the same state.
  TemporalGraph restarted_graph = graphtempo::testing::BuildPaperGraph();
  engine::QueryEngine restarted_engine(&restarted_graph);
  ServerConfig config;
  config.ingest_log_path = log_path;
  Server restarted(&restarted_graph, &restarted_engine, config);
  std::string error;
  ASSERT_TRUE(restarted.Start(&error)) << error;
  EXPECT_EQ(restarted_graph.num_times(), 4u);
  EXPECT_TRUE(restarted_graph.FindTime("t3").has_value());
  restarted.Shutdown();
  std::remove(log_path.c_str());
}

TEST_F(ServerTest, MalformedIngestBatchReportsLineNumber) {
  StartServer();
  HttpResponse response = Fetch("POST", "/ingest", "t t3\nzz what\n");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("line 2"), std::string::npos) << response.body;
}

TEST_F(ServerTest, StatsReportsActiveComputeBackend) {
  StartServer();
  json::Value stats = FetchJson("GET", "/stats");
  const json::Value* backend = stats.Find("backend");
  ASSERT_NE(backend, nullptr) << "/stats lost the backend field";
  ASSERT_TRUE(backend->is_string());
  // Round-trip: the served name is exactly what the accel registry reports.
  EXPECT_EQ(backend->AsString(), accel::ActiveBackendName());
}

TEST_F(ServerTest, DuplicateTimePointIngestIsDroppedNotFatal) {
  StartServer();
  FetchJson("POST", "/ingest", "t t1\nt t3\n", 202);  // t1 already exists
  WaitForTimePoints(4);  // t3 still lands; the duplicate is skipped
  json::Value stats = FetchJson("GET", "/stats");
  EXPECT_EQ(stats.Find("num_times")->AsUint64().value_or(0), 4u);
}

TEST_F(ServerTest, RequestIdHeaderIsEchoedOrAssigned) {
  StartServer();
  // Without a client id the server assigns a monotonic numeric one.
  HttpResponse bare = Fetch("GET", "/healthz");
  std::string assigned = bare.Header("x-gt-request-id");
  ASSERT_FALSE(assigned.empty());
  EXPECT_EQ(assigned.find_first_not_of("0123456789"), std::string::npos)
      << assigned;

  // A client-supplied X-GT-Request-Id is echoed back verbatim.
  std::string error;
  std::optional<HttpResponse> tagged =
      HttpFetch("127.0.0.1", server_->port(), "GET", "/healthz", "", &error,
                10000, {{"X-GT-Request-Id", "smoke-abc-7"}});
  ASSERT_TRUE(tagged.has_value()) << error;
  EXPECT_EQ(tagged->Header("x-gt-request-id"), "smoke-abc-7");

  // Unsafe characters are replaced before the id enters logs or headers.
  std::optional<HttpResponse> hostile =
      HttpFetch("127.0.0.1", server_->port(), "GET", "/healthz", "", &error,
                10000, {{"X-GT-Request-Id", "a b\"c"}});
  ASSERT_TRUE(hostile.has_value()) << error;
  EXPECT_EQ(hostile->Header("x-gt-request-id"), "a_b_c");
}

TEST_F(ServerTest, DebugTraceCarriesRequestIdsWithoutTraceMode) {
  StartServer();
  // The flight recorder is always on: no TraceSession exists, yet the spans
  // for a served request must be drainable afterwards with its request id.
  ASSERT_FALSE(obs::TracingActive());
  HttpResponse query =
      Fetch("POST", "/query", R"({"t1":"t0","attrs":["gender"]})");
  ASSERT_EQ(query.status, 200) << query.body;
  const std::string id_text = query.Header("x-gt-request-id");
  ASSERT_FALSE(id_text.empty());
  const std::uint64_t id = std::stoull(id_text);

  json::Value trace = FetchJson("GET", "/debug/trace");
  const json::Value* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool found_request = false;
  bool found_execute = false;
  for (const json::Value& event : events->AsArray()) {
    const json::Value* name = event.Find("name");
    if (name == nullptr || !name->is_string()) continue;
    if (name->AsString() == "server/execute") found_execute = true;
    if (name->AsString() != "server/request") continue;
    const json::Value* args = event.Find("args");
    const json::Value* request = args ? args->Find("request") : nullptr;
    if (request != nullptr && request->AsUint64().value_or(0) == id) {
      found_request = true;
    }
  }
  EXPECT_TRUE(found_request)
      << "request " << id << " left no server/request span in the flight ring";
  EXPECT_TRUE(found_execute) << "phase spans missing from the flight ring";

  // A bogus window parameter is rejected, a valid one honoured.
  EXPECT_EQ(Fetch("GET", "/debug/trace?ms=banana").status, 400);
  EXPECT_EQ(Fetch("GET", "/debug/trace?ms=60000").status, 200);
}

TEST_F(ServerTest, MetricsNegotiatesPrometheusExposition) {
  StartServer();
  ASSERT_EQ(Fetch("POST", "/query", R"({"t1":"t0","attrs":["gender"]})").status,
            200);

  HttpResponse prom = Fetch("GET", "/metrics?format=prometheus");
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.content_type.find("text/plain; version=0.0.4"),
            std::string::npos)
      << prom.content_type;
  EXPECT_EQ(prom.body.rfind("# TYPE gt_", 0), 0u) << prom.body.substr(0, 80);
  EXPECT_NE(prom.body.find("gt_server_query_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.body.find("gt_server_query_latency_us_count"),
            std::string::npos);

  // Accept-header negotiation selects the exposition; the default stays JSON
  // so existing clients keep working.
  std::string error;
  std::optional<HttpResponse> accepted =
      HttpFetch("127.0.0.1", server_->port(), "GET", "/metrics", "", &error,
                10000, {{"Accept", "text/plain"}});
  ASSERT_TRUE(accepted.has_value()) << error;
  EXPECT_EQ(accepted->body.rfind("# TYPE gt_", 0), 0u);
  json::Value json_metrics = FetchJson("GET", "/metrics");
  EXPECT_NE(json_metrics.Find("counters"), nullptr);
}

// The observability differential: a slow-log record must agree with the served
// answer (fingerprint, route), the accel registry (backend), and the engine's
// own cache counters. Any attribution drift between the slow log and reality
// fails here.
TEST_F(ServerTest, SlowLogRecordMatchesTheServedAnswer) {
  ServerConfig config;
  config.slow_query_ms = 0;  // threshold 0: every query is "slow" (ring-only)
  StartServer(config);
  engine::QueryEngine::CacheStats before = engine_.cache_stats();
  HttpResponse query = Fetch(
      "POST", "/query", R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender"]})");
  ASSERT_EQ(query.status, 200) << query.body;
  engine::QueryEngine::CacheStats after = engine_.cache_stats();
  const std::string request_id = query.Header("x-gt-request-id");
  std::string error;
  std::optional<json::Value> answer = json::Parse(query.body, &error);
  ASSERT_TRUE(answer.has_value()) << error;

  json::Value records = FetchJson("GET", "/debug/slow");
  ASSERT_TRUE(records.is_array()) << "slow ring must serve a JSON array";
  const json::Value* record = nullptr;
  for (const json::Value& candidate : records.AsArray()) {
    const json::Value* id = candidate.Find("request_id");
    if (id != nullptr &&
        std::to_string(id->AsUint64().value_or(0)) == request_id) {
      record = &candidate;
    }
  }
  ASSERT_NE(record, nullptr) << "slow-query ring lost request " << request_id;

  EXPECT_EQ(record->Find("fingerprint")->AsString(),
            answer->Find("fingerprint")->AsString());
  EXPECT_EQ(record->Find("route")->AsString(),
            answer->Find("route")->AsString());
  EXPECT_EQ(record->Find("backend")->AsString(), accel::ActiveBackendName());
  EXPECT_GT(record->Find("total_us")->AsUint64().value_or(0), 0u);
  EXPECT_FALSE(record->Find("spec")->AsString().empty());

  // The recorded cache outcome must match the engine's counter movement.
  const std::string cache = record->Find("cache")->AsString();
  if (cache == "miss") {
    EXPECT_EQ(after.misses, before.misses + 1);
  } else if (cache == "hit") {
    EXPECT_EQ(after.hits, before.hits + 1);
  } else {
    EXPECT_EQ(cache, "bypass");
  }

  // Per-phase timings must include the server-side phases.
  const json::Value* phases = record->Find("phases");
  ASSERT_NE(phases, nullptr);
  for (const char* phase : {"server/parse", "server/bind", "server/execute",
                            "server/serialize"}) {
    const json::Value* entry = phases->Find(phase);
    ASSERT_NE(entry, nullptr) << phase << " missing from the slow record";
    EXPECT_GE(entry->Find("count")->AsUint64().value_or(0), 1u) << phase;
  }
}

TEST_F(ServerTest, FastQueriesStayOutOfTheSlowLog) {
  ServerConfig config;
  config.slow_query_ms = 60000;  // nothing in this test takes a minute
  StartServer(config);
  ASSERT_EQ(Fetch("POST", "/query", R"({"t1":"t0","attrs":["gender"]})").status,
            200);
  json::Value records = FetchJson("GET", "/debug/slow");
  ASSERT_TRUE(records.is_array());
  EXPECT_TRUE(records.AsArray().empty()) << "threshold was not honoured";
}

TEST_F(ServerTest, SlowLogFileReceivesRecordsOnShutdown) {
  const std::string path = ::testing::TempDir() + "/gt_slow_log_" +
                           std::to_string(getpid()) + ".log";
  std::remove(path.c_str());
  {
    ServerConfig config;
    config.slow_query_ms = 0;
    config.slow_log_path = path;
    StartServer(config);
    ASSERT_EQ(
        Fetch("POST", "/query", R"({"t1":"t0","attrs":["gender"]})").status,
        200);
    server_->Shutdown();  // drains the writer; every record must be on disk
    server_.reset();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << "slow log file is empty";
  std::string error;
  std::optional<json::Value> record = json::Parse(line, &error);
  ASSERT_TRUE(record.has_value()) << error << ": " << line;
  EXPECT_NE(record->Find("fingerprint"), nullptr);
  EXPECT_NE(record->Find("phases"), nullptr);
  std::remove(path.c_str());
}

TEST_F(ServerTest, KeepAliveServesManyRequestsOverOneConnection) {
  StartServer();
  HttpClient client("127.0.0.1", server_->port());
  std::string error;
  const std::string request = R"({"t1":"t0","attrs":["gender"]})";

  // The reference bytes over a one-shot (Connection: close) connection.
  const HttpResponse reference = Fetch("POST", "/query", request);
  ASSERT_EQ(reference.status, 200);

  for (int i = 0; i < 5; ++i) {
    std::optional<HttpResponse> response =
        client.Fetch("POST", "/query", request, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, reference.body);  // identical bytes either way
    std::optional<HttpResponse> health = client.Fetch("GET", "/healthz", "", &error);
    ASSERT_TRUE(health.has_value()) << error;
    EXPECT_EQ(health->status, 200);
  }
  EXPECT_EQ(client.connects(), 1u);  // ten round trips, one TCP connect

  // Close() really drops the socket; the next round trip reconnects.
  client.Close();
  std::optional<HttpResponse> again = client.Fetch("GET", "/healthz", "", &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(client.connects(), 2u);
}

TEST_F(ServerTest, BatchWindowKeepsAnswersByteIdentical) {
  ServerConfig config;
  config.batch_window_us = 2000;
  config.worker_threads = 4;
  StartServer(config);

  // Ground truth from a direct engine call through the same wire layer.
  TemporalGraph reference_graph = graphtempo::testing::BuildPaperGraph();
  engine::QueryEngine reference_engine(&reference_graph);
  const std::string request =
      R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender","publications"]})";
  std::string error;
  std::optional<json::Value> parsed = json::Parse(request, &error);
  ASSERT_TRUE(parsed.has_value());
  engine::wire::RequestOptions options;
  std::optional<engine::QuerySpec> spec =
      engine::wire::BindQuerySpec(reference_graph, *parsed, &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const std::string direct = engine::wire::ResultToJson(
      reference_graph, *spec, reference_engine.Plan(*spec),
      reference_engine.Execute(*spec), options.top);

  // Concurrent identical queries land in shared gather windows; every served
  // body must still be byte-identical to the direct answer.
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  constexpr int kClients = 8;
  constexpr int kRounds = 10;
  std::atomic<int> divergences{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kRounds; ++i) {
        std::string fetch_error;
        std::optional<HttpResponse> response =
            client.Fetch("POST", "/query", request, &fetch_error);
        if (!response.has_value() || response->status != 200 ||
            response->body != direct) {
          divergences.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();

  EXPECT_EQ(divergences.load(), 0);
  EXPECT_GT(after.CounterValue("server/batch_windows") -
                before.CounterValue("server/batch_windows"),
            0u);
}

TEST_F(ServerTest, CrlfTerminatedIngestBodyCreatesCleanLabels) {
  StartServer();
  // HTTP clients routinely send CRLF-terminated bodies. The carriage returns
  // must not leak into labels: "t t3\r" means time point "t3", not "t3\r" —
  // before the fix the stray \r produced a label no query could ever name.
  json::Value accepted = FetchJson("POST", "/ingest",
                                   "t t3\r\ne Mary John t3\r\nn Anna t3\r\n", 202);
  EXPECT_EQ(accepted.Find("accepted")->AsUint64().value_or(0), 3u);
  WaitForTimePoints(4);
  EXPECT_EQ(graph_.time_label(3), "t3");

  // The new point is addressable by its clean label end to end.
  HttpResponse response =
      Fetch("POST", "/query", R"({"op":"project","t1":"t3","attrs":["gender"]})");
  EXPECT_EQ(response.status, 200) << response.body;
}

TEST(IngestParseTest, ParseIngestLineStripsCarriageReturn) {
  std::string error;
  std::optional<IngestRecord> record = ParseIngestLine("t t9\r", &error);
  ASSERT_TRUE(record.has_value()) << error;
  EXPECT_EQ(record->kind, IngestRecord::Kind::kAppendTime);
  EXPECT_EQ(record->time, "t9");

  // Only the line terminator is stripped, whichever flavour it came in.
  record = ParseIngestLine("n Anna t9\r\n", &error);
  ASSERT_TRUE(record.has_value()) << error;
  EXPECT_EQ(record->kind, IngestRecord::Kind::kNodePresent);
  EXPECT_EQ(record->time, "t9");
}

TEST_F(ServerTest, OverCapacityQueryRidesOpenGatherWindow) {
  ServerConfig config;
  config.max_inflight = 1;          // the leader alone fills the capacity
  config.batch_window_us = 200000;  // long window: followers arrive inside it
  config.worker_threads = 8;        // every rider gets a worker immediately
  StartServer(config);

  // The first query leads a 200 ms gather window; once it is open, every
  // later query is over capacity and must ride that window (one gathered
  // batch is one in-flight unit) instead of bouncing with 503. The riders
  // start after a delay well inside the window so they deterministically
  // find it open — an arrival in the sliver before the leader opens it may
  // still legitimately 503 (no window to ride yet).
  const std::string request = R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender"]})";
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  constexpr int kRiders = 4;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  auto fetch = [&] {
    std::string error;
    std::optional<HttpResponse> response =
        HttpFetch("127.0.0.1", server_->port(), "POST", "/query", request, &error);
    ASSERT_TRUE(response.has_value()) << error;
    if (response->status == 200) ok.fetch_add(1);
    if (response->status == 503) rejected.fetch_add(1);
  };
  std::thread leader(fetch);
  std::this_thread::sleep_for(60ms);  // the leader is now mid-window
  std::vector<std::thread> riders;
  riders.reserve(kRiders);
  for (int c = 0; c < kRiders; ++c) riders.emplace_back(fetch);
  for (std::thread& rider : riders) rider.join();
  leader.join();
  const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();

  EXPECT_EQ(ok.load(), kRiders + 1);
  EXPECT_EQ(rejected.load(), 0);
  EXPECT_GT(after.CounterValue("server/batch_riders") -
                before.CounterValue("server/batch_riders"),
            0u);
}

TEST_F(ServerTest, CapacityStillEnforcedWithoutAnOpenWindow) {
  ServerConfig config;
  config.max_inflight = 1;
  config.batch_window_us = 0;  // gathering disabled: no window to ride
  StartServer(config);

  // Hold the single admission slot with a slow filtered query... there is no
  // cheap way to park a query server-side, so approximate: hammer with
  // enough concurrency that at least one pair overlaps. Over-capacity
  // arrivals must get 503 (the historical contract), never hang or crash.
  const std::string request = R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender"]})";
  constexpr int kClients = 8;
  constexpr int kRounds = 20;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kRounds; ++i) {
        std::string error;
        std::optional<HttpResponse> response =
            client.Fetch("POST", "/query", request, &error);
        if (!response.has_value()) continue;
        if (response->status == 200) ok.fetch_add(1);
        if (response->status == 503) rejected.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // Every request resolved one way or the other, and at least some won the
  // race (an all-503 run would mean the slot leaked).
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), kClients * kRounds);
}

}  // namespace
}  // namespace graphtempo::server
