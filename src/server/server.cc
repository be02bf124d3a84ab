#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "accel/backend.h"
#include "engine/wire.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/string_util.h"

namespace graphtempo::server {

namespace {

obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/requests");
  return c;
}
obs::Counter& BadRequestCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/bad_request");
  return c;
}
obs::Counter& RejectedRateCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/rejected_rate");
  return c;
}
obs::Counter& RejectedAdmissionCounter() {
  static obs::Counter& c =
      obs::Registry::Instance().GetCounter("server/rejected_admission");
  return c;
}
obs::Counter& IngestRecordsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/ingest_records");
  return c;
}
obs::Counter& IngestBatchesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/ingest_batches");
  return c;
}
obs::Counter& EventsPushedCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/events_pushed");
  return c;
}
obs::Histogram& QueryLatencyHistogram() {
  static obs::Histogram& h =
      obs::Registry::Instance().GetHistogram("server/query_latency_us");
  return h;
}
obs::Counter& SlowQueriesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/slow_queries");
  return c;
}

/// X-GT-Request-Id values are echoed into response headers and log lines;
/// keep them short and printable so they cannot corrupt either.
std::string SanitizeClientRequestId(const HttpRequest& request) {
  auto it = request.headers.find("x-gt-request-id");
  if (it == request.headers.end()) return "";
  std::string id;
  for (char c : it->second) {
    if (id.size() >= 64) break;
    const bool printable = c > 0x20 && c < 0x7f && c != '"' && c != '\\';
    id.push_back(printable ? c : '_');
  }
  return id;
}

/// The canonical ID for a request: the client's correlation ID when supplied,
/// the server-assigned monotonic query ID otherwise.
std::string DisplayRequestId(const obs::RequestContext& context) {
  return context.client_request_id.empty() ? std::to_string(context.query_id)
                                           : context.client_request_id;
}

HttpResponse JsonError(int status, const std::string& message) {
  json::Value body = json::Value::Object();
  body.Set("error", json::Value::String(message));
  return HttpResponse{status, "application/json", body.Serialize()};
}

/// One SSE frame: `event: <name>` + one `data:` line per payload line.
std::string SseFrame(const std::string& event, const std::string& data) {
  std::string frame = "event: " + event + "\n";
  std::size_t start = 0;
  while (start <= data.size()) {
    std::size_t newline = data.find('\n', start);
    if (newline == std::string::npos) {
      frame += "data: " + data.substr(start) + "\n";
      break;
    }
    frame += "data: " + data.substr(start, newline - start) + "\n";
    start = newline + 1;
  }
  frame += "\n";
  return frame;
}

}  // namespace

Server::Server(TemporalGraph* graph, engine::QueryEngine* engine, ServerConfig config)
    : graph_(graph),
      engine_(engine),
      config_(std::move(config)),
      batcher_(engine, config_.batch_window_us),
      ingest_queue_(config_.ingest_queue_capacity),
      rate_limiter_(config_.rate_limit_qps, config_.rate_limit_burst) {
  if (config_.worker_threads == 0) config_.worker_threads = 1;
}

Server::~Server() { Shutdown(); }

bool Server::Start(std::string* error) {
  State expected = State::kIdle;
  if (!state_.compare_exchange_strong(expected, State::kRunning)) {
    *error = "server already started";
    return false;
  }

  if (!config_.ingest_log_path.empty()) {
    std::ifstream log(config_.ingest_log_path);
    if (log.is_open()) {
      // Replay under the same locks live ingestion takes, so Start may be
      // called on an engine that is already serving.
      std::unique_lock<std::shared_mutex> server_writer(graph_mutex_);
      auto engine_writer = engine_->AcquireWriterLock();
      std::string line;
      std::size_t line_number = 0;
      while (std::getline(log, line)) {
        ++line_number;
        std::string parse_error;
        std::optional<IngestRecord> record = ParseIngestLine(line, &parse_error);
        if (!record.has_value()) {
          if (parse_error.empty()) continue;  // blank / comment
          *error = config_.ingest_log_path + ":" + std::to_string(line_number) + ": " +
                   parse_error;
          state_.store(State::kIdle);
          return false;
        }
        std::string apply_error;
        if (!ApplyIngestRecord(graph_, *record, &apply_error)) {
          *error = config_.ingest_log_path + ":" + std::to_string(line_number) + ": " +
                   apply_error;
          state_.store(State::kIdle);
          return false;
        }
      }
      engine_writer.unlock();
      server_writer.unlock();
      engine_->Refresh();
    }
  }

  const int listen_fd = CreateListenSocket(config_.port, error);
  if (listen_fd < 0) {
    state_.store(State::kIdle);
    return false;
  }
  listen_fd_.store(listen_fd);
  port_ = ListenSocketPort(listen_fd);

  // The slow-query writer always exists (ring-only when no path configured)
  // so GET /debug/slow works out of the box; the access log is opt-in.
  slow_log_ = std::make_unique<LogWriter>(config_.slow_log_path);
  if (!config_.access_log_path.empty()) {
    access_log_ = std::make_unique<LogWriter>(config_.access_log_path);
  }

  listener_ = std::thread([this] { ListenerLoop(); });
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  writer_ = std::thread([this] { WriterLoop(); });
  return true;
}

void Server::ListenerLoop() {
  while (state_.load() == State::kRunning) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) break;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Shutdown (or fatal error)
    }
    // Keep-alive connections serve many request/response turns on one
    // socket; without TCP_NODELAY the second turn eats a Nagle stall.
    int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_queue_.push_back(fd);
    }
    conn_available_.notify_one();
  }
}

void Server::WorkerLoop() {
  obs::SetCurrentThreadLaneName("server-worker");
  while (true) {
    int fd;
    {
      std::unique_lock<std::mutex> lock(conn_mutex_);
      conn_available_.wait(lock, [&] { return !conn_queue_.empty(); });
      fd = conn_queue_.front();
      conn_queue_.pop_front();
    }
    if (fd < 0) return;  // shutdown sentinel
    HandleConnection(fd);
  }
}

void Server::HandleConnection(int fd) {
  // Serve requests back-to-back while the client asks for keep-alive; the
  // historical behaviour (close after one response) remains the default.
  while (true) {
    std::string error;
    std::optional<HttpRequest> request = ReadHttpRequest(
        fd, config_.max_request_bytes, config_.request_timeout_ms, &error);
    if (!request.has_value()) {
      // An empty diagnostic is the clean-EOF sentinel: a keep-alive client
      // hung up between requests — not an error, nothing to answer.
      if (!error.empty()) WriteHttpResponse(fd, JsonError(400, error));
      break;
    }

    // Keep the connection only when the client asked for it *and* the server
    // is not draining — a worker must not sit in a read loop past Shutdown.
    bool keep_alive = false;
    if (auto it = request->headers.find("connection"); it != request->headers.end()) {
      std::string value = it->second;
      for (char& c : value) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      keep_alive = value == "keep-alive";
    }
    if (state_.load() != State::kRunning) keep_alive = false;

    // Bind a request context for the whole dispatch: spans recorded on this
    // thread (and on pool lanes working for it) attribute to this query ID,
    // and the engine fills in route/cache for the slow-query record.
    obs::RequestContext context(SanitizeClientRequestId(*request));
    obs::ScopedRequestContext bind(&context);

    const auto started = std::chrono::steady_clock::now();
    std::optional<HttpResponse> response;
    {
      // Scoped so the span (carrying the numeric request ID) lands in the
      // flight recorder before the response reaches the client.
      GT_SPAN("server/request", {{"request", context.query_id}});
      response = Dispatch(*request, fd);
    }
    requests_served_.fetch_add(1);
    RequestsCounter().Increment();

    if (access_log_ != nullptr) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started);
      json::Value line = json::Value::Object();
      line.Set("request_id", json::Value::Number(context.query_id));
      if (!context.client_request_id.empty()) {
        line.Set("client_request_id", json::Value::String(context.client_request_id));
      }
      line.Set("method", json::Value::String(request->method));
      line.Set("path", json::Value::String(request->path));
      line.Set("status", json::Value::Number(static_cast<std::uint64_t>(
                             response.has_value() ? response->status : 200)));
      line.Set("total_us",
               json::Value::Number(static_cast<std::uint64_t>(elapsed.count())));
      access_log_->Append(line.Serialize());
    }

    if (!response.has_value()) return;  // fd adopted by the SSE subscriber set
    response->headers.emplace_back("X-GT-Request-Id", DisplayRequestId(context));
    if (!WriteHttpResponse(fd, *response, keep_alive)) break;
    if (!keep_alive) break;
  }
  ::close(fd);
}

std::optional<HttpResponse> Server::Dispatch(const HttpRequest& request, int fd) {
  const std::string& path = request.path;
  if (path == "/healthz") {
    if (request.method != "GET") return JsonError(405, "GET only");
    return HttpResponse{200, "text/plain", "ok\n"};
  }
  if (path == "/metrics") {
    if (request.method != "GET") return JsonError(405, "GET only");
    return HandleMetrics(request);
  }
  if (path == "/debug/trace") {
    if (request.method != "GET") return JsonError(405, "GET only");
    return HandleDebugTrace(request);
  }
  if (path == "/debug/slow") {
    if (request.method != "GET") return JsonError(405, "GET only");
    return HandleDebugSlow();
  }
  if (path == "/stats") {
    if (request.method != "GET") return JsonError(405, "GET only");
    return HandleStats();
  }
  if (path == "/query") {
    if (request.method != "POST") return JsonError(405, "POST only");
    return HandleQuery(request);
  }
  if (path == "/ingest") {
    if (request.method != "POST") return JsonError(405, "POST only");
    return HandleIngest(request);
  }
  if (path == "/events") {
    if (request.method != "GET") return JsonError(405, "GET only");
    if (HandleSubscribe(fd)) return std::nullopt;
    return JsonError(503, "subscriber limit reached");
  }
  if (path == "/shutdown") {
    if (request.method != "POST") return JsonError(405, "POST only");
    shutdown_requested_.store(true);
    json::Value body = json::Value::Object();
    body.Set("shutting_down", json::Value::Bool(true));
    return HttpResponse{200, "application/json", body.Serialize()};
  }
  return JsonError(404, "no such endpoint: " + path);
}

HttpResponse Server::HandleQuery(const HttpRequest& request) {
  if (!rate_limiter_.TryAcquire()) {
    RejectedRateCounter().Increment();
    return JsonError(429, "rate limit exceeded");
  }

  // Admission control: bound concurrently-executing queries so a burst
  // degrades to fast 503s instead of a convoy on the engine. A gathered
  // batch is ONE in-flight unit of engine work, so an over-capacity query is
  // not rejected outright: if a batch leader is currently holding a gather
  // window open, the query rides that window (adding no engine concurrency)
  // and only 503s when no window is open to join.
  bool admitted = true;
  std::int64_t inflight = inflight_.fetch_add(1) + 1;
  if (inflight > static_cast<std::int64_t>(config_.max_inflight)) {
    inflight_.fetch_sub(1);
    admitted = false;
  }
  auto admission_release = [this, admitted] {
    if (admitted) inflight_.fetch_sub(1);
  };
  auto reject_admission = [this] {
    RejectedAdmissionCounter().Increment();
    return JsonError(503, "server at capacity (" +
                              std::to_string(config_.max_inflight) +
                              " queries in flight)");
  };

  auto started = std::chrono::steady_clock::now();
  HttpResponse response;
  std::string spec_text;  // rendered under the shared lock, for the slow log
  bool executed = false;
  {
    std::string parse_error;
    std::optional<json::Value> body;
    {
      GT_SPAN("server/parse");
      body = json::Parse(request.body, &parse_error);
    }
    if (!body.has_value()) {
      admission_release();
      BadRequestCounter().Increment();
      return JsonError(400, "invalid JSON: " + parse_error);
    }

    // Shared lock spans binding + execution: binding reads the graph's time
    // and attribute tables, which the ingestion writer mutates exclusively.
    std::shared_lock<std::shared_mutex> reader(graph_mutex_);
    engine::wire::RequestOptions options;
    options.top = config_.default_top;
    std::string bind_error;
    std::optional<engine::QuerySpec> spec;
    {
      GT_SPAN("server/bind");
      spec = engine::wire::BindQuerySpec(*graph_, *body, &options, &bind_error);
    }
    if (!spec.has_value()) {
      admission_release();
      BadRequestCounter().Increment();
      return JsonError(400, bind_error);
    }

    if (options.explain) {
      if (!admitted) return reject_admission();
      engine::QueryPlan plan = engine_->Plan(*spec);
      response = HttpResponse{200, "application/json", engine::wire::PlanToJson(plan)};
    } else {
      engine::QueryPlan plan = engine_->Plan(*spec);
      std::optional<engine::QueryResult> result;
      {
        GT_SPAN("server/execute");
        // The batcher gathers concurrent queries into one engine batch when
        // configured; a pass-through to ExecuteResult otherwise. Either way
        // the bound request context receives the engine's attribution. An
        // un-admitted query may still ride an open gather window — the batch
        // executes as one unit regardless of how many queries piled on.
        if (admitted) {
          result = batcher_.Execute(*spec, obs::CurrentRequestContext());
        } else {
          result = batcher_.TryJoinActiveWindow(*spec, obs::CurrentRequestContext());
        }
      }
      if (!result.has_value()) return reject_admission();
      {
        GT_SPAN("server/serialize");
        response = HttpResponse{
            200, "application/json",
            engine::wire::QueryResultToJson(*graph_, *spec, plan, *result,
                                            options.top)};
      }
      executed = true;
      if (config_.slow_query_ms >= 0) spec_text = spec->ToString(*graph_);
    }
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  const std::uint64_t total_us = static_cast<std::uint64_t>(elapsed.count());
  QueryLatencyHistogram().Record(total_us);

  if (obs::RequestContext* context = obs::CurrentRequestContext()) {
    // A p99-class latency becomes the exemplar for the Prometheus exposition:
    // the tail bucket of gt_server_query_latency_us points at this request.
    obs::HistogramSnapshot latency = QueryLatencyHistogram().Snapshot();
    if (total_us >= latency.Percentile(0.99)) {
      obs::ExemplarStore::Instance().Offer("server/query_latency_us", total_us,
                                           DisplayRequestId(*context));
    }
    if (executed && config_.slow_query_ms >= 0 &&
        total_us >= static_cast<std::uint64_t>(config_.slow_query_ms) * 1000) {
      SlowQueriesCounter().Increment();
      RecordSlowQuery(*context, spec_text, total_us);
    }
  }
  admission_release();
  return response;
}

HttpResponse Server::HandleIngest(const HttpRequest& request) {
  std::string error;
  std::optional<std::vector<IngestRecord>> records =
      ParseIngestBatch(request.body, &error);
  if (!records.has_value()) {
    BadRequestCounter().Increment();
    return JsonError(400, error);
  }
  std::size_t count = records->size();
  if (count > 0 && !ingest_queue_.Push(std::move(*records))) {
    return JsonError(503, "ingestion queue full");
  }
  json::Value body = json::Value::Object();
  body.Set("accepted", json::Value::Number(static_cast<std::uint64_t>(count)));
  return HttpResponse{202, "application/json", body.Serialize()};
}

HttpResponse Server::HandleStats() {
  json::Value body = json::Value::Object();
  // Which compute backend the kernels run on (accel/backend.h) — lets a
  // client correlate server-side latency with the SIMD tier that produced it.
  body.Set("backend", json::Value::String(accel::ActiveBackendName()));
  {
    // Graph shape, so clients (the load generator) can build valid specs.
    std::shared_lock<std::shared_mutex> reader(graph_mutex_);
    body.Set("num_times", json::Value::Number(
                              static_cast<std::uint64_t>(graph_->num_times())));
    body.Set("nodes",
             json::Value::Number(static_cast<std::uint64_t>(graph_->num_nodes())));
    body.Set("edges",
             json::Value::Number(static_cast<std::uint64_t>(graph_->num_edges())));
  }
  body.Set("requests", json::Value::Number(requests_served_.load()));
  body.Set("inflight", json::Value::Number(
                           static_cast<std::uint64_t>(std::max<std::int64_t>(
                               0, inflight_.load()))));
  body.Set("ingest_queue_depth",
           json::Value::Number(static_cast<std::uint64_t>(ingest_queue_.size())));
  {
    std::lock_guard<std::mutex> lock(subscriber_mutex_);
    body.Set("subscribers",
             json::Value::Number(static_cast<std::uint64_t>(subscribers_.size())));
  }
  engine::QueryEngine::CacheStats cache = engine_->cache_stats();
  json::Value cache_json = json::Value::Object();
  cache_json.Set("hits", json::Value::Number(cache.hits));
  cache_json.Set("misses", json::Value::Number(cache.misses));
  cache_json.Set("bypasses", json::Value::Number(cache.bypasses));
  cache_json.Set("evictions", json::Value::Number(cache.evictions));
  cache_json.Set("invalidations", json::Value::Number(cache.invalidations));
  body.Set("cache", std::move(cache_json));
  // The batch gather window, so a client can tell whether batching is on.
  body.Set("batch_window_us", json::Value::Number(
                                  static_cast<std::int64_t>(config_.batch_window_us)));
  auto counter = [](const char* name) {
    return json::Value::Number(obs::Registry::Instance().GetCounter(name).Value());
  };
  json::Value batch_json = json::Value::Object();
  batch_json.Set("windows", counter("server/batch_windows"));
  batch_json.Set("gathered", counter("server/batch_gathered"));
  batch_json.Set("executions", counter("engine/batch_exec"));
  batch_json.Set("queries", counter("engine/batch_queries"));
  batch_json.Set("merged", counter("engine/batch_merged"));
  batch_json.Set("fold_hits", counter("engine/batch_fold_hits"));
  batch_json.Set("fold_misses", counter("engine/batch_fold_misses"));
  body.Set("batch", std::move(batch_json));
  return HttpResponse{200, "application/json", body.Serialize()};
}

HttpResponse Server::HandleMetrics(const HttpRequest& request) {
  // Content negotiation: the Prometheus exposition on explicit
  // `?format=prometheus`, or when the client's Accept prefers text — the JSON
  // snapshot (the original wire format) otherwise, so existing clients (the
  // load generator, `graphtempo metrics`) keep working unchanged.
  bool prometheus = request.query.find("format=prometheus") != std::string::npos;
  if (!prometheus) {
    auto accept = request.headers.find("accept");
    prometheus = accept != request.headers.end() &&
                 (accept->second.find("text/plain") != std::string::npos ||
                  accept->second.find("openmetrics") != std::string::npos);
  }
  if (prometheus) {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        obs::ToPrometheusText(obs::Registry::Instance().Snapshot(),
                                              &obs::ExemplarStore::Instance())};
  }
  return HttpResponse{200, "application/json",
                      obs::Registry::Instance().Snapshot().ToJson()};
}

HttpResponse Server::HandleDebugTrace(const HttpRequest& request) {
  // `?ms=N` keeps only spans that ended within the last N milliseconds;
  // absent (or 0) drains everything still in the rings.
  std::uint64_t window_ns = 0;
  const std::string& query = request.query;
  std::size_t at = query.find("ms=");
  while (at != std::string::npos && at != 0 && query[at - 1] != '&') {
    at = query.find("ms=", at + 3);  // skip e.g. "params=", match a real ms=
  }
  if (at != std::string::npos) {
    std::size_t end = query.find('&', at);
    std::string_view value(query.data() + at + 3,
                           (end == std::string::npos ? query.size() : end) - at - 3);
    std::uint64_t ms = 0;
    if (!ParseUint64(value, &ms)) {
      return JsonError(400, "invalid ms parameter: '" + std::string(value) + "'");
    }
    window_ns = ms * 1000000ull;
  }
  return HttpResponse{200, "application/json", obs::FlightJson(window_ns)};
}

HttpResponse Server::HandleDebugSlow() {
  std::string body = "[";
  if (slow_log_ != nullptr) {
    bool first = true;
    for (const std::string& line : slow_log_->Recent()) {
      if (!first) body += ",";
      first = false;
      body += line;  // records are stored as serialized JSON objects
    }
  }
  body += "]";
  return HttpResponse{200, "application/json", std::move(body)};
}

void Server::RecordSlowQuery(const obs::RequestContext& context,
                             const std::string& spec_text,
                             std::uint64_t total_us) {
  if (slow_log_ == nullptr) return;
  json::Value record = json::Value::Object();
  record.Set("request_id", json::Value::Number(context.query_id));
  record.Set("client_request_id", json::Value::String(context.client_request_id));
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof(fingerprint), "0x%016" PRIx64,
                context.fingerprint.load(std::memory_order_relaxed));
  record.Set("fingerprint", json::Value::String(fingerprint));
  record.Set("spec", json::Value::String(spec_text));
  record.Set("route",
             json::Value::String(context.route.load(std::memory_order_relaxed)));
  record.Set("stale_fallback", json::Value::Bool(context.stale_fallback.load(
                                   std::memory_order_relaxed)));
  record.Set("batched",
             json::Value::Bool(context.batched.load(std::memory_order_relaxed)));
  record.Set("shared_fold_hits", json::Value::Number(context.shared_fold_hits.load(
                                     std::memory_order_relaxed)));
  record.Set("shared_fold_misses",
             json::Value::Number(
                 context.shared_fold_misses.load(std::memory_order_relaxed)));
  record.Set("grouping", json::Value::String(
                             context.grouping.load(std::memory_order_relaxed)));
  record.Set("backend", json::Value::String(accel::ActiveBackendName()));
  record.Set("cache",
             json::Value::String(context.cache.load(std::memory_order_relaxed)));
  record.Set("kernel_words", json::Value::Number(context.kernel_words.load(
                                 std::memory_order_relaxed)));
  record.Set("total_us", json::Value::Number(total_us));

  // Phase table → {"name": {"total_us": …, "count": …}}. Merged by string
  // name: the table is keyed by literal address, and the same span name can
  // appear under two addresses when recorded from different TUs.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const obs::PhaseTiming& phase : context.Phases()) {
    auto& entry = merged[phase.name];
    entry.first += phase.total_ns;
    entry.second += phase.count;
  }
  json::Value phases = json::Value::Object();
  for (const auto& [name, totals] : merged) {
    json::Value phase = json::Value::Object();
    phase.Set("total_us", json::Value::Number(totals.first / 1000));
    phase.Set("count", json::Value::Number(totals.second));
    phases.Set(name, std::move(phase));
  }
  record.Set("phases", std::move(phases));
  const std::uint64_t dropped =
      context.phases_dropped.load(std::memory_order_relaxed);
  if (dropped != 0) {
    record.Set("phases_dropped", json::Value::Number(dropped));
  }
  slow_log_->Append(record.Serialize());
}

bool Server::HandleSubscribe(int fd) {
  std::lock_guard<std::mutex> lock(subscriber_mutex_);
  if (subscribers_.size() >= config_.max_subscribers) return false;
  std::string head =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: text/event-stream\r\n"
      "Cache-Control: no-cache\r\n"
      "Connection: close\r\n\r\n";
  if (!WriteRaw(fd, head) || !WriteRaw(fd, SseFrame("hello", "{}"))) {
    ::close(fd);
    return true;  // handled (client vanished); do not answer 503
  }
  subscribers_.push_back(Subscriber{fd});
  return true;
}

void Server::Broadcast(const std::string& event, const std::string& data) {
  std::string frame = SseFrame(event, data);
  std::lock_guard<std::mutex> lock(subscriber_mutex_);
  std::size_t kept = 0;
  for (Subscriber& subscriber : subscribers_) {
    if (WriteRaw(subscriber.fd, frame)) {
      subscribers_[kept++] = subscriber;
      EventsPushedCounter().Increment();
    } else {
      ::close(subscriber.fd);  // client hung up; drop the stream
    }
  }
  subscribers_.resize(kept);
}

std::string Server::EvolutionEventJson() const {
  json::Value body = json::Value::Object();
  std::size_t num_times = graph_->num_times();
  body.Set("num_times", json::Value::Number(static_cast<std::uint64_t>(num_times)));
  if (num_times > 0) {
    body.Set("latest", json::Value::String(
                           graph_->time_label(static_cast<TimeId>(num_times - 1))));
  }
  if (num_times >= 2) {
    // Evolution events of §3 between the two newest points, straight off the
    // presence-index columns: stability = old ∩ new, growth = new − old,
    // shrinkage = old − new.
    std::size_t t_old = num_times - 2;
    std::size_t t_new = num_times - 1;
    auto fill = [&](const PresenceIndex& index, const char* key) {
      const DynamicBitset& old_col = index.Column(t_old);
      const DynamicBitset& new_col = index.Column(t_new);
      json::Value section = json::Value::Object();
      section.Set("stability", json::Value::Number(static_cast<std::uint64_t>(
                                   (old_col & new_col).Count())));
      section.Set("growth", json::Value::Number(static_cast<std::uint64_t>(
                                (new_col - old_col).Count())));
      section.Set("shrinkage", json::Value::Number(static_cast<std::uint64_t>(
                                   (old_col - new_col).Count())));
      body.Set(key, std::move(section));
    };
    fill(graph_->node_presence_index(), "nodes");
    fill(graph_->edge_presence_index(), "edges");
  }
  return body.Serialize();
}

void Server::AppendToIngestLog(const std::vector<IngestRecord>& records) {
  if (config_.ingest_log_path.empty()) return;
  std::lock_guard<std::mutex> lock(log_mutex_);
  std::ofstream log(config_.ingest_log_path, std::ios::app);
  if (!log.is_open()) return;
  for (const IngestRecord& record : records) log << record.ToLine() << "\n";
}

void Server::WriterLoop() {
  obs::SetCurrentThreadLaneName("ingest-writer");
  while (true) {
    std::vector<IngestRecord> batch = ingest_queue_.PopBatch();
    if (batch.empty()) return;  // queue closed and drained

    std::vector<IngestRecord> applied;
    applied.reserve(batch.size());
    bool appended_time = false;
    {
      GT_SPAN("server/ingest_apply", {{"records", batch.size()}});
      // Lock order matches HandleQuery's reader: server mutex, then engine.
      std::unique_lock<std::shared_mutex> server_writer(graph_mutex_);
      auto engine_writer = engine_->AcquireWriterLock();
      for (IngestRecord& record : batch) {
        std::string error;
        if (ApplyIngestRecord(graph_, record, &error)) {
          appended_time |= record.kind == IngestRecord::Kind::kAppendTime;
          applied.push_back(std::move(record));
        }
        // Invalid records were admitted syntactically but fail semantically
        // (e.g. unknown attribute); they are dropped — the changefeed is
        // at-least-once per *valid* record, and /stats exposes the delta
        // between accepted and applied via server/ingest_records.
      }
    }  // release both locks before Refresh (engine contract, engine.h)
    engine_->Refresh();

    if (!applied.empty()) {
      IngestRecordsCounter().Add(applied.size());
      IngestBatchesCounter().Increment();
      AppendToIngestLog(applied);
      std::string event_json;
      {
        std::shared_lock<std::shared_mutex> reader(graph_mutex_);
        event_json = EvolutionEventJson();
      }
      Broadcast(appended_time ? "evolution" : "update", event_json);
    }
  }
}

void Server::Shutdown() {
  State expected = State::kRunning;
  if (!state_.compare_exchange_strong(expected, State::kStopping)) {
    if (expected == State::kStopped || expected == State::kIdle) return;
    // Another thread is mid-shutdown; wait for it.
    std::unique_lock<std::mutex> lock(stopped_mutex_);
    stopped_.wait(lock, [&] { return state_.load() == State::kStopped; });
    return;
  }

  // 1. Stop accepting: closing the listen socket unblocks accept().
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (listener_.joinable()) listener_.join();

  // 2. Drain in-flight connections: workers exit on their sentinel, which
  //    sits *behind* every already-accepted connection in the queue.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (std::size_t i = 0; i < workers_.size(); ++i) conn_queue_.push_back(-1);
  }
  conn_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 3. Drain queued ingestion, then stop the writer.
  ingest_queue_.Close();
  if (writer_.joinable()) writer_.join();

  // 3b. Flush the structured logs. Workers are joined, so no append races
  //     the drain; the objects stay alive for post-shutdown inspection.
  if (slow_log_ != nullptr) slow_log_->Shutdown();
  if (access_log_ != nullptr) access_log_->Shutdown();

  // 4. Tell subscribers goodbye and close their streams.
  {
    std::lock_guard<std::mutex> lock(subscriber_mutex_);
    for (Subscriber& subscriber : subscribers_) {
      WriteRaw(subscriber.fd, SseFrame("shutdown", "{}"));
      ::close(subscriber.fd);
    }
    subscribers_.clear();
  }

  state_.store(State::kStopped);
  {
    std::lock_guard<std::mutex> lock(stopped_mutex_);
    stopped_.notify_all();
  }
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(stopped_mutex_);
  stopped_.wait(lock, [&] {
    State s = state_.load();
    return s == State::kStopped || s == State::kIdle;
  });
}

}  // namespace graphtempo::server
