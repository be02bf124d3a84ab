// gtperf — the service benchmark's in-process half (see perfbench/README.md).
//
//   gtperf gen <movielens|dblp> --seed N --out DIR [--node-scale F]
//         [--edge-scale F]
//       Generates the dataset from the seed, keeps the first time points as
//       the boot graph (DIR/base.tsv; for DBLP also the snapshot
//       DIR/base.snap) and turns every later time point into ingestion
//       records (`t/n/e/sa/va`, server/ingest.h) split into batches in
//       DIR/ingest.txt. DIR/manifest.json describes the result.
//
//   gtperf replay --ops FILE --out FILE (--tsv PATH | --snapshot PATH)
//         [--ingest FILE] [--materialize a,b]
//       Replays a benchmark's operation sequence in-process on one thread,
//       the way the server's query and writer paths execute it, timing every
//       call into the layers' public functions. Each FILE line is
//       `Q <request json>`, `I <batch index>` or `P <phase name>` (starts a
//       new phase). Writes one JSON object with per-operation timings and
//       answer digests, and per-phase engine/registry work counters.
//
//   gtperf drive --port N --deck FILE --cycles K --out FILE
//       The closed loop of ml-hot's timed phase: two threads, each with one
//       keep-alive connection, send the deck (one request JSON per line)
//       K times. Client i starts cycle k i*(|deck|/2 + k*kPhaseStep) specs
//       into the deck, so which specs of the two clients overlap changes
//       from cycle to cycle. Writes the elapsed seconds and, per request, the
//       client, spec index, HTTP status, latency and the body's CRC-32 and
//       length. (Native threads keep a scripting runtime's lock out of the
//       latencies.)
//
//   gtperf info
//       Build type, compiler and active compute backend as JSON.

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/backend.h"
#include "core/graph_io.h"
#include "core/graph_snapshot.h"
#include "core/stats.h"
#include "core/temporal_graph.h"
#include "datagen/dblp_gen.h"
#include "datagen/movielens_gen.h"
#include "datagen/profiles.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/http.h"
#include "server/ingest.h"
#include "util/json.h"
#include "util/parallel.h"

namespace gt = graphtempo;
namespace json = graphtempo::json;

namespace {

constexpr std::size_t kMaxBatchBytes = 1 << 20;  // the server's request cap

/// Records per ingest batch. DBLP's yearly appends are the dblp-ingest
/// workload and go in large batches (each under kMaxBatchBytes); MovieLens's
/// one small held-out month only gives the ml-* workloads their ingest
/// metrics, so it is cut finer to yield enough batches for a median.
constexpr std::size_t kDblpBatchRecords = 16384;
constexpr std::size_t kMovieLensBatchRecords = 2048;

/// Client threads of `drive` (ml-hot's two keep-alive clients).
constexpr std::size_t kDriveClients = 2;

/// Per-cycle phase shift between drive clients; coprime to ml-hot's 15-spec
/// deck, so over 15 cycles every spec meets every spec of the other client.
constexpr std::size_t kPhaseStep = 4;

/// `--name value` pairs after the subcommand (and its positional argument).
std::map<std::string, std::string> ParseFlags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      std::cerr << "gtperf: expected --flag, got '" << name << "'\n";
      std::exit(2);
    }
    flags[name.substr(2)] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) {
    std::cerr << "gtperf: flag without value: " << argv[argc - 1] << "\n";
    std::exit(2);
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags, const std::string& name,
                 const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "gtperf: " << message << "\n";
  std::exit(1);
}

/// CRC-32 (IEEE 802.3, the polynomial of zlib.crc32) — the answer digest the
/// benchmark's run.py recomputes over HTTP bodies.
std::uint32_t Crc32(const std::string& bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : bytes) crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

json::Value Num(double value) { return json::Value::Number(value); }
json::Value Count(std::uint64_t value) { return json::Value::Number(value); }

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

// --- gen --------------------------------------------------------------------

std::vector<std::size_t> Scaled(const std::vector<std::size_t>& sizes, double scale) {
  std::vector<std::size_t> out;
  for (std::size_t size : sizes) {
    out.push_back(std::max<std::size_t>(2, static_cast<std::size_t>(
                                               std::llround(static_cast<double>(size) * scale))));
  }
  return out;
}

/// Rejects values the whitespace-separated ingest format cannot carry.
void CheckToken(const std::string& token) {
  if (token.empty() || token.find_first_of(" \t\r\n#") != std::string::npos) {
    Fail("value '" + token + "' cannot be written as an ingest token");
  }
}

/// Copies time points [0, base) of `full` into a fresh graph with the same
/// attribute schema; entities absent from every copied point are left out.
gt::TemporalGraph BaseGraph(const gt::TemporalGraph& full, std::size_t base) {
  std::vector<std::string> labels;
  for (std::size_t t = 0; t < base; ++t) labels.push_back(full.time_label(t));
  gt::TemporalGraph graph(labels);
  for (std::uint32_t a = 0; a < full.num_static_attributes(); ++a) {
    graph.AddStaticAttribute(full.attribute_name(gt::AttrRef{gt::AttrRef::Kind::kStatic, a}));
  }
  for (std::uint32_t a = 0; a < full.num_time_varying_attributes(); ++a) {
    graph.AddTimeVaryingAttribute(
        full.attribute_name(gt::AttrRef{gt::AttrRef::Kind::kTimeVarying, a}));
  }
  for (gt::NodeId n = 0; n < full.num_nodes(); ++n) {
    bool present = false;
    for (std::size_t t = 0; t < base && !present; ++t) present = full.NodePresentAt(n, t);
    if (!present) continue;
    gt::NodeId copy = graph.AddNode(full.node_label(n));
    for (std::uint32_t a = 0; a < full.num_static_attributes(); ++a) {
      gt::AttrRef ref{gt::AttrRef::Kind::kStatic, a};
      gt::AttrValueId code = full.ValueCodeAt(ref, n, 0);
      if (code != gt::kNoValue) graph.SetStaticValue(a, copy, full.ValueName(ref, code));
    }
    for (std::size_t t = 0; t < base; ++t) {
      if (!full.NodePresentAt(n, t)) continue;
      graph.SetNodePresent(copy, t);
      for (std::uint32_t a = 0; a < full.num_time_varying_attributes(); ++a) {
        gt::AttrRef ref{gt::AttrRef::Kind::kTimeVarying, a};
        gt::AttrValueId code = full.ValueCodeAt(ref, n, t);
        if (code != gt::kNoValue) {
          graph.SetTimeVaryingValue(a, copy, t, full.ValueName(ref, code));
        }
      }
    }
  }
  for (gt::EdgeId e = 0; e < full.num_edges(); ++e) {
    auto [src, dst] = full.edge(e);
    std::optional<gt::EdgeId> copy;
    for (std::size_t t = 0; t < base; ++t) {
      if (!full.EdgePresentAt(e, t)) continue;
      if (!copy.has_value()) {
        copy = graph.GetOrAddEdge(*graph.FindNode(full.node_label(src)),
                                  *graph.FindNode(full.node_label(dst)));
      }
      graph.SetEdgePresent(*copy, t);
    }
  }
  return graph;
}

/// Ingest lines for time points [base, num_times) of `full`, one vector per
/// batch: every time point opens a new batch with its `t` record, then
/// node records (a node's static `sa` values on first appearance), then
/// edges, cut every `batch_records` records.
std::vector<std::vector<std::string>> IngestBatches(const gt::TemporalGraph& full,
                                                    std::size_t base,
                                                    std::size_t batch_records) {
  std::vector<bool> known(full.num_nodes(), false);
  for (gt::NodeId n = 0; n < full.num_nodes(); ++n) {
    for (std::size_t t = 0; t < base && !known[n]; ++t) known[n] = full.NodePresentAt(n, t);
  }
  std::vector<std::vector<std::string>> batches;
  for (std::size_t t = base; t < full.num_times(); ++t) {
    const std::string& time = full.time_label(t);
    std::vector<std::string> lines{"t " + time};
    for (gt::NodeId n = 0; n < full.num_nodes(); ++n) {
      if (!full.NodePresentAt(n, t)) continue;
      const std::string& node = full.node_label(n);
      CheckToken(node);
      if (!known[n]) {
        known[n] = true;
        for (std::uint32_t a = 0; a < full.num_static_attributes(); ++a) {
          gt::AttrRef ref{gt::AttrRef::Kind::kStatic, a};
          gt::AttrValueId code = full.ValueCodeAt(ref, n, t);
          if (code == gt::kNoValue) continue;
          CheckToken(full.ValueName(ref, code));
          lines.push_back("sa " + full.attribute_name(ref) + " " + node + " " +
                          full.ValueName(ref, code));
        }
      }
      lines.push_back("n " + node + " " + time);
      for (std::uint32_t a = 0; a < full.num_time_varying_attributes(); ++a) {
        gt::AttrRef ref{gt::AttrRef::Kind::kTimeVarying, a};
        gt::AttrValueId code = full.ValueCodeAt(ref, n, t);
        if (code == gt::kNoValue) continue;
        CheckToken(full.ValueName(ref, code));
        lines.push_back("va " + full.attribute_name(ref) + " " + node + " " + time + " " +
                        full.ValueName(ref, code));
      }
    }
    for (gt::EdgeId e = 0; e < full.num_edges(); ++e) {
      if (!full.EdgePresentAt(e, t)) continue;
      auto [src, dst] = full.edge(e);
      lines.push_back("e " + full.node_label(src) + " " + full.node_label(dst) + " " + time);
    }
    for (std::size_t i = 0; i < lines.size(); i += batch_records) {
      std::size_t end = std::min(lines.size(), i + batch_records);
      batches.emplace_back(lines.begin() + static_cast<std::ptrdiff_t>(i),
                           lines.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return batches;
}

int CmdGen(int argc, char** argv) {
  if (argc < 3) Fail("usage: gtperf gen <movielens|dblp> --seed N --out DIR ...");
  const std::string dataset = argv[2];
  auto flags = ParseFlags(argc, argv, 3);
  const std::uint64_t seed = std::strtoull(Flag(flags, "seed", "1").c_str(), nullptr, 10);
  const double node_scale = std::atof(Flag(flags, "node-scale", "1").c_str());
  const double edge_scale = std::atof(Flag(flags, "edge-scale", "1").c_str());
  const std::string out_dir = Flag(flags, "out", "");
  if (out_dir.empty() || node_scale <= 0 || edge_scale <= 0) {
    Fail("gen needs --out and positive --node-scale/--edge-scale");
  }

  // MovieLens boots from Table 4's six months and ingests one held-out
  // month sized like October (the smallest); DBLP boots from 2000–2010 and
  // ingests 2011–2020 (Table 3).
  gt::datagen::DatasetProfile profile;
  std::size_t base = 0;
  std::optional<gt::TemporalGraph> full;
  if (dataset == "movielens") {
    profile = gt::datagen::MovieLensProfile();
    profile.time_labels.push_back("Nov");
    profile.nodes_per_time.push_back(profile.nodes_per_time.back());
    profile.edges_per_time.push_back(profile.edges_per_time.back());
    base = 6;
  } else if (dataset == "dblp") {
    profile = gt::datagen::DblpProfile();
    base = 11;
  } else {
    Fail("unknown dataset '" + dataset + "'");
  }
  profile.nodes_per_time = Scaled(profile.nodes_per_time, node_scale);
  profile.edges_per_time = Scaled(profile.edges_per_time, edge_scale);
  if (dataset == "movielens") {
    gt::datagen::MovieLensOptions options;
    options.seed = seed;
    options.user_pool = std::max<std::size_t>(
        8, static_cast<std::size_t>(std::llround(2200.0 * node_scale)));
    full = gt::datagen::GenerateMovieLensWithProfile(profile, options);
  } else {
    gt::datagen::DblpOptions options;
    options.seed = seed;
    full = gt::datagen::GenerateDblpWithProfile(profile, options);
  }

  std::filesystem::create_directories(out_dir);
  gt::TemporalGraph base_graph = BaseGraph(*full, base);
  std::string error;
  if (!gt::WriteGraphToFile(base_graph, out_dir + "/base.tsv", &error)) Fail(error);
  const bool dblp = dataset == "dblp";
  if (dblp && !gt::SaveGraphSnapshot(base_graph, out_dir + "/base.snap", &error)) Fail(error);

  std::vector<std::vector<std::string>> batches =
      IngestBatches(*full, base, dblp ? kDblpBatchRecords : kMovieLensBatchRecords);
  std::ostringstream ingest;
  std::size_t records = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::size_t bytes = 0;
    for (const std::string& line : batches[b]) bytes += line.size() + 1;
    if (bytes > kMaxBatchBytes) Fail("an ingest batch exceeds 1 MiB");
    ingest << "# batch " << b << " records " << batches[b].size() << "\n";
    for (const std::string& line : batches[b]) ingest << line << "\n";
    records += batches[b].size();
  }
  if (!WriteText(out_dir + "/ingest.txt", ingest.str())) Fail("cannot write ingest.txt");

  json::Value manifest = json::Value::Object();
  manifest.Set("dataset", json::Value::String(dataset));
  manifest.Set("seed", Count(seed));
  json::Value times = json::Value::Array();
  for (std::size_t t = 0; t < full->num_times(); ++t) {
    times.Append(json::Value::String(full->time_label(t)));
  }
  manifest.Set("times", std::move(times));
  manifest.Set("base_times", Count(base));
  manifest.Set("base_nodes", Count(base_graph.num_nodes()));
  manifest.Set("base_edges", Count(base_graph.num_edges()));
  manifest.Set("full_nodes", Count(full->num_nodes()));
  manifest.Set("full_edges", Count(full->num_edges()));
  manifest.Set("ingest_records", Count(records));
  manifest.Set("ingest_batches", Count(batches.size()));
  if (!WriteText(out_dir + "/manifest.json", manifest.Serialize() + "\n")) {
    Fail("cannot write manifest.json");
  }
  return 0;
}

// --- replay -----------------------------------------------------------------

/// The bodies of DIR/ingest.txt, one string per `# batch` block.
std::vector<std::string> ReadBatches(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) Fail("cannot read " + path);
  std::vector<std::string> batches;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# batch ", 0) == 0) {
      batches.emplace_back();
    } else if (!batches.empty()) {
      batches.back() += line + "\n";
    }
  }
  return batches;
}

/// The server's `/events` payload after a writer batch (Server::
/// EvolutionEventJson): node/edge stability, growth and shrinkage between
/// the two newest time points.
std::string EvolutionEventJson(const gt::TemporalGraph& graph) {
  json::Value body = json::Value::Object();
  std::size_t num_times = graph.num_times();
  body.Set("num_times", Count(num_times));
  if (num_times > 0) {
    body.Set("latest", json::Value::String(graph.time_label(num_times - 1)));
  }
  if (num_times >= 2) {
    auto fill = [&](const gt::PresenceIndex& index, const char* key) {
      const gt::DynamicBitset& old_col = index.Column(num_times - 2);
      const gt::DynamicBitset& new_col = index.Column(num_times - 1);
      json::Value section = json::Value::Object();
      section.Set("stability", Count((old_col & new_col).Count()));
      section.Set("growth", Count((new_col - old_col).Count()));
      section.Set("shrinkage", Count((old_col - new_col).Count()));
      body.Set(key, std::move(section));
    };
    fill(graph.node_presence_index(), "nodes");
    fill(graph.edge_presence_index(), "edges");
  }
  return body.Serialize();
}

std::uint64_t ResultRows(const gt::engine::QueryResult& result) {
  switch (result.kind) {
    case gt::engine::QueryKind::kAggregate:
      return result.aggregate.NodeCount() + result.aggregate.EdgeCount();
    case gt::engine::QueryKind::kEvolution:
      return result.evolution.nodes().size() + result.evolution.edges().size();
    case gt::engine::QueryKind::kExplore:
      return result.exploration.pairs.size();
  }
  return 0;
}

/// Sum in microseconds of the `span/<name>` latency histograms (fed by the
/// engine's and core's existing GT_SPANs while a ScopedLatencyCapture is
/// alive).
double SpanSumUs(const gt::obs::MetricsSnapshot& snapshot,
                 std::initializer_list<const char*> names) {
  double sum = 0;
  for (const char* name : names) {
    sum += static_cast<double>(snapshot.HistogramValue(std::string("span/") + name).sum);
  }
  return sum;
}

/// Engine and registry state at the start of a replay phase (`P <name>`).
struct PhaseStart {
  gt::obs::MetricsSnapshot metrics;
  gt::engine::QueryEngine::CacheStats cache;
  gt::engine::QueryEngine::DerivationStats derivation;
  gt::ExecCounters counters;
};

PhaseStart StartPhase(const gt::engine::QueryEngine& engine) {
  return PhaseStart{gt::obs::Registry::Instance().Snapshot(), engine.cache_stats(),
                    engine.derivation_stats(), gt::GetExecCounters()};
}

/// Work done since `start`: core span time from the `span/<name>`
/// histograms, result-cache outcomes, roll-ups and kernel words.
json::Value EndPhase(const PhaseStart& start, const gt::engine::QueryEngine& engine) {
  const gt::obs::MetricsSnapshot now = gt::obs::Registry::Instance().Snapshot();
  auto span_ms = [&](std::initializer_list<const char*> names) {
    return Num((SpanSumUs(now, names) - SpanSumUs(start.metrics, names)) / 1000);
  };
  json::Value phase = json::Value::Object();
  phase.Set("operator_ms", span_ms({"operators/union", "operators/intersection",
                                    "operators/difference", "operators/project"}));
  phase.Set("aggregate_ms", span_ms({"agg/aggregate"}));
  phase.Set("evolution_ms", span_ms({"engine/evolution"}));
  phase.Set("explore_ms", span_ms({"explore/run"}));
  const gt::engine::QueryEngine::CacheStats cache = engine.cache_stats();
  phase.Set("hits", Count(cache.hits - start.cache.hits));
  phase.Set("misses", Count(cache.misses - start.cache.misses));
  phase.Set("bypasses", Count(cache.bypasses - start.cache.bypasses));
  phase.Set("evictions", Count(cache.evictions - start.cache.evictions));
  phase.Set("invalidations", Count(cache.invalidations - start.cache.invalidations));
  const gt::engine::QueryEngine::DerivationStats derivation = engine.derivation_stats();
  phase.Set("rollups", Count(derivation.rollups - start.derivation.rollups));
  phase.Set("rollup_hits", Count(derivation.rollup_hits - start.derivation.rollup_hits));
  phase.Set("kernel_words",
            Count(gt::GetExecCounters().kernel_words - start.counters.kernel_words));
  return phase;
}

int CmdReplay(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv, 2);
  const std::string ops_path = Flag(flags, "ops", "");
  const std::string out_path = Flag(flags, "out", "");
  const std::string tsv = Flag(flags, "tsv", "");
  const std::string snapshot = Flag(flags, "snapshot", "");
  if (ops_path.empty() || out_path.empty() || tsv.empty() == snapshot.empty()) {
    Fail("replay needs --ops, --out and exactly one of --tsv/--snapshot");
  }
  // Answers do not depend on the thread count, and the serial path keeps
  // the per-call timings free of pool scheduling.
  gt::SetParallelism(1);
  std::string error;

  json::Value out = json::Value::Object();
  auto started = std::chrono::steady_clock::now();
  std::optional<gt::TemporalGraph> graph =
      snapshot.empty() ? gt::ReadGraphFromFile(tsv, &error)
                       : gt::LoadGraphSnapshot(snapshot, &error);
  if (!graph.has_value()) Fail(error);
  out.Set(snapshot.empty() ? "tsv_load_s" : "snapshot_load_s", Num(SecondsSince(started)));

  // Same engine configuration as `graphtempo serve` (cost planner, default
  // cache capacity, no spill tier).
  gt::engine::QueryEngine::Config config;
  config.planner = gt::engine::PlannerMode::kCost;
  gt::engine::QueryEngine engine(&*graph, config);
  const std::string materialize = Flag(flags, "materialize", "");
  if (!materialize.empty()) {
    std::vector<gt::AttrRef> attrs;
    std::stringstream names(materialize);
    for (std::string name; std::getline(names, name, ',');) {
      std::optional<gt::AttrRef> ref = graph->FindAttribute(name);
      if (!ref.has_value()) Fail("unknown attribute '" + name + "'");
      attrs.push_back(*ref);
    }
    started = std::chrono::steady_clock::now();
    engine.EnableMaterialization(attrs);
    out.Set("materialize_s", Num(SecondsSince(started)));
  }

  std::vector<std::string> batches;
  if (std::string ingest = Flag(flags, "ingest", ""); !ingest.empty()) {
    batches = ReadBatches(ingest);
  }
  std::ifstream ops(ops_path);
  if (!ops.is_open()) Fail("cannot read " + ops_path);

  gt::obs::ScopedLatencyCapture capture;
  PhaseStart phase_start = StartPhase(engine);
  std::string phase = "all";
  json::Value phases = json::Value::Object();
  json::Value rows = json::Value::Array();
  std::string line;
  while (std::getline(ops, line)) {
    if (line.size() < 3) continue;
    const std::string arg = line.substr(2);
    if (line[0] == 'P') {
      phases.Set(phase, EndPhase(phase_start, engine));
      phase = arg;
      phase_start = StartPhase(engine);
      continue;
    }
    json::Value row = json::Value::Object();
    row.Set("phase", json::Value::String(phase));
    if (line[0] == 'Q') {
      auto t0 = std::chrono::steady_clock::now();
      std::optional<json::Value> body = json::Parse(arg, &error);
      const double parse_us = MicrosSince(t0);
      if (!body.has_value()) Fail("bad request json: " + error);
      gt::engine::wire::RequestOptions options;
      t0 = std::chrono::steady_clock::now();
      std::optional<gt::engine::QuerySpec> spec =
          gt::engine::wire::BindQuerySpec(*graph, *body, &options, &error);
      const double bind_us = MicrosSince(t0);
      if (!spec.has_value()) Fail("bind failed: " + error + " for " + arg);
      t0 = std::chrono::steady_clock::now();
      gt::engine::QueryPlan plan = engine.Plan(*spec);
      const double plan_us = MicrosSince(t0);
      const std::uint64_t hits_before = engine.cache_stats().hits;
      t0 = std::chrono::steady_clock::now();
      gt::engine::QueryResult result = engine.ExecuteResult(*spec);
      const double exec_us = MicrosSince(t0);
      const bool hit = engine.cache_stats().hits != hits_before;
      t0 = std::chrono::steady_clock::now();
      std::string bytes =
          gt::engine::wire::QueryResultToJson(*graph, *spec, plan, result, options.top);
      const double serialize_us = MicrosSince(t0);
      row.Set("op", json::Value::String("query"));
      row.Set("parse_us", Num(parse_us));
      row.Set("bind_us", Num(bind_us));
      row.Set("plan_us", Num(plan_us));
      row.Set("exec_us", Num(exec_us));
      row.Set("serialize_us", Num(serialize_us));
      row.Set("hit", json::Value::Bool(hit));
      row.Set("materialized",
              json::Value::Bool(plan.route == gt::engine::PlanRoute::kMaterializedDerivation));
      row.Set("rows", Count(ResultRows(result)));
      row.Set("bytes", Count(bytes.size()));
      row.Set("crc32", Count(Crc32(bytes)));
    } else if (line[0] == 'I') {
      const std::size_t index = std::strtoull(arg.c_str(), nullptr, 10);
      if (index >= batches.size()) Fail("no ingest batch " + arg);
      auto t0 = std::chrono::steady_clock::now();
      std::optional<std::vector<gt::server::IngestRecord>> records =
          gt::server::ParseIngestBatch(batches[index], &error);
      const double parse_ms = MicrosSince(t0) / 1000;
      if (!records.has_value()) Fail("bad ingest batch: " + error);
      bool appended_time = false;
      std::size_t applied = 0;
      t0 = std::chrono::steady_clock::now();
      {
        auto writer = engine.AcquireWriterLock();
        for (const gt::server::IngestRecord& record : *records) {
          if (!gt::server::ApplyIngestRecord(&*graph, record, &error)) {
            Fail("ingest record rejected: " + error);
          }
          appended_time |= record.kind == gt::server::IngestRecord::Kind::kAppendTime;
          ++applied;
        }
      }
      const double apply_ms = MicrosSince(t0) / 1000;
      t0 = std::chrono::steady_clock::now();
      engine.Refresh();
      const double refresh_ms = MicrosSince(t0) / 1000;
      row.Set("op", json::Value::String("ingest"));
      row.Set("parse_ms", Num(parse_ms));
      row.Set("apply_ms", Num(apply_ms));
      row.Set("refresh_ms", Num(refresh_ms));
      row.Set("records", Count(applied));
      row.Set("event", json::Value::String(appended_time ? "evolution" : "update"));
      row.Set("data", json::Value::String(EvolutionEventJson(*graph)));
    } else {
      Fail("bad ops line: " + line);
    }
    rows.Append(std::move(row));
  }
  phases.Set(phase, EndPhase(phase_start, engine));
  out.Set("ops", std::move(rows));
  out.Set("phases", std::move(phases));
  out.Set("backend", json::Value::String(gt::accel::ActiveBackendName()));

  if (!WriteText(out_path, out.Serialize() + "\n")) Fail("cannot write " + out_path);
  return 0;
}

int CmdDrive(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv, 2);
  const int port = std::atoi(Flag(flags, "port", "0").c_str());
  const std::size_t cycles = std::strtoull(Flag(flags, "cycles", "0").c_str(), nullptr, 10);
  const std::string out_path = Flag(flags, "out", "");
  std::vector<std::string> deck;
  std::ifstream in(Flag(flags, "deck", ""));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) deck.push_back(line);
  }
  if (port <= 0 || cycles == 0 || deck.empty() || out_path.empty()) {
    Fail("drive needs --port, --deck, --cycles and --out");
  }

  struct Sample {
    std::size_t spec = 0;
    int status = 0;
    double latency_us = 0;
    std::uint32_t crc = 0;
    std::size_t bytes = 0;
  };
  std::vector<std::vector<Sample>> samples(kDriveClients);
  std::vector<std::string> errors(kDriveClients);
  std::barrier start(static_cast<std::ptrdiff_t>(kDriveClients) + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kDriveClients; ++c) {
    threads.emplace_back([&, c] {
      gt::server::HttpClient client("127.0.0.1", port);
      samples[c].reserve(cycles * deck.size());
      // One untimed request opens the connection, so no timed sample pays
      // for the TCP connect.
      std::optional<gt::server::HttpResponse> hello =
          client.Fetch("GET", "/healthz", "", &errors[c], 60000);
      if (hello.has_value() && hello->status != 200) errors[c] = "/healthz refused";
      start.arrive_and_wait();
      for (std::size_t k = 0; k < cycles * deck.size() && errors[c].empty(); ++k) {
        const std::size_t cycle = k / deck.size();
        const std::size_t offset = c * (deck.size() / kDriveClients + cycle * kPhaseStep);
        const std::size_t spec = (k + offset) % deck.size();
        auto t0 = std::chrono::steady_clock::now();
        std::optional<gt::server::HttpResponse> response =
            client.Fetch("POST", "/query", deck[spec], &errors[c], 60000);
        const double latency_us = MicrosSince(t0);
        if (!response.has_value()) break;
        samples[c].push_back(Sample{spec, response->status, latency_us, Crc32(response->body),
                                    response->body.size()});
      }
    });
  }
  start.arrive_and_wait();
  auto started = std::chrono::steady_clock::now();
  for (std::thread& thread : threads) thread.join();
  const double elapsed_s = SecondsSince(started);
  for (const std::string& error : errors) {
    if (!error.empty()) Fail("client: " + error);
  }

  json::Value out = json::Value::Object();
  out.Set("elapsed_s", Num(elapsed_s));
  json::Value rows = json::Value::Array();
  for (std::size_t c = 0; c < kDriveClients; ++c) {
    for (const Sample& sample : samples[c]) {
      json::Value row = json::Value::Array();
      row.Append(Count(c));
      row.Append(Count(sample.spec));
      row.Append(Count(static_cast<std::uint64_t>(sample.status)));
      row.Append(Num(sample.latency_us));
      row.Append(Count(sample.crc));
      row.Append(Count(sample.bytes));
      rows.Append(std::move(row));
    }
  }
  out.Set("samples", std::move(rows));
  if (!WriteText(out_path, out.Serialize() + "\n")) Fail("cannot write " + out_path);
  return 0;
}

int CmdInfo() {
  json::Value info = json::Value::Object();
  info.Set("build_type", json::Value::String(GTPERF_BUILD_TYPE));
  info.Set("compiler", json::Value::String(GTPERF_COMPILER));
  info.Set("backend", json::Value::String(gt::accel::ActiveBackendName()));
  std::cout << info.Serialize() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "gen") return CmdGen(argc, argv);
  if (command == "replay") return CmdReplay(argc, argv);
  if (command == "drive") return CmdDrive(argc, argv);
  if (command == "info") return CmdInfo();
  std::cerr << "usage: gtperf <gen|replay|drive|info> ... (see perfbench/gtperf.cc)\n";
  return 2;
}
