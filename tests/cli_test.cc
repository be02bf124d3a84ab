#include "tools/cli.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "accel/backend.h"
#include "core/aggregation.h"
#include "core/graph_io.h"
#include "test_graphs.h"
#include "util/parallel.h"

namespace graphtempo {
namespace {

/// Runs the CLI in-process and captures exit code + both streams.
struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun RunCliCapture(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  int code = cli::RunCli(args, out, err);
  return CliRun{code, out.str(), err.str()};
}

/// Fixture that writes the paper graph to a temp file for file-based commands.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs tests from this binary in parallel processes sharing
    // TempDir(); the path must be unique per test and per process.
    path_ = ::testing::TempDir() + "/graphtempo_cli_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
            std::to_string(getpid()) + ".tsv";
    TemporalGraph graph = testing::BuildPaperGraph();
    std::string error;
    ASSERT_TRUE(WriteGraphToFile(graph, path_, &error)) << error;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST(CliBasicsTest, NoArgsPrintsUsageAndFails) {
  CliRun run = RunCliCapture({});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.out.find("usage:"), std::string::npos);
}

TEST(CliBasicsTest, HelpSucceeds) {
  CliRun run = RunCliCapture({"help"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("aggregate"), std::string::npos);
}

TEST(CliBasicsTest, UnknownCommandFails) {
  CliRun run = RunCliCapture({"frobnicate"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown command"), std::string::npos);
}

TEST(CliBasicsTest, FlagWithoutValueFails) {
  CliRun run = RunCliCapture({"info", "--seed"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("needs a value"), std::string::npos);
}

TEST_F(CliTest, InfoShowsSizesAndAttributes) {
  CliRun run = RunCliCapture({"info", path_});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("nodes       : 5"), std::string::npos);
  EXPECT_NE(run.out.find("edges       : 7"), std::string::npos);
  EXPECT_NE(run.out.find("gender(static,2 values)"), std::string::npos);
  EXPECT_NE(run.out.find("publications(varying,"), std::string::npos);
}

TEST_F(CliTest, InfoMissingFileFails) {
  CliRun run = RunCliCapture({"info", "/nonexistent/nope.tsv"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, OperateUnionCounts) {
  CliRun run = RunCliCapture({"operate", path_, "--op", "union", "--t1", "t0", "--t2", "t1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("4 nodes, 5 edges"), std::string::npos);
}

TEST_F(CliTest, OperateProjectWithRange) {
  CliRun run = RunCliCapture({"operate", path_, "--op", "project", "--t1", "t0..t1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("3 nodes, 2 edges"), std::string::npos);
}

TEST_F(CliTest, OperateAcceptsNumericTimeIndices) {
  CliRun run = RunCliCapture({"operate", path_, "--op", "intersection", "--t1", "0", "--t2", "1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("3 nodes, 2 edges"), std::string::npos);
}

TEST_F(CliTest, OperateUnknownTimeFails) {
  CliRun run = RunCliCapture({"operate", path_, "--op", "union", "--t1", "t9"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown time point"), std::string::npos);
}

TEST_F(CliTest, OperateExtractsSubgraph) {
  std::string out_path = path_ + ".sub";
  CliRun run = RunCliCapture({"operate", path_, "--op", "difference", "--t1", "t0", "--t2", "t1",
                    "--out", out_path});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  std::string error;
  std::optional<TemporalGraph> sub = ReadGraphFromFile(out_path, &error);
  ASSERT_TRUE(sub.has_value()) << error;
  EXPECT_EQ(sub->num_nodes(), 3u);
  EXPECT_EQ(sub->num_edges(), 2u);
  std::remove(out_path.c_str());
}

TEST_F(CliTest, AggregateDistPrintsPaperWeights) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender,publications", "--op",
                    "union", "--t1", "t0", "--t2", "t1", "--semantics", "dist"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("(f,1)  3"), std::string::npos);  // the Fig 3d weight
}

TEST_F(CliTest, AggregateAllPrintsPaperWeights) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender,publications", "--op",
                    "union", "--t1", "t0", "--t2", "t1", "--semantics", "all"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("(f,1)  4"), std::string::npos);  // the Fig 3e weight
}

TEST_F(CliTest, AggregateUnknownAttributeFails) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "nope", "--t1", "t0"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown attribute"), std::string::npos);
}

// --- Global execution options (--threads / --perf) -----------------------------------

TEST_F(CliTest, ThreadsBeforeCommandIsAcceptedAndApplied) {
  CliRun run = RunCliCapture({"--threads", "3", "info", path_});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(GetParallelism(), 3u);
  SetParallelism(1);
}

TEST_F(CliTest, ThreadsAfterCommandIsAcceptedToo) {
  CliRun run = RunCliCapture({"info", path_, "--threads", "2"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(GetParallelism(), 2u);
  SetParallelism(1);
}

TEST_F(CliTest, ThreadsRejectsZeroAndGarbage) {
  for (const char* bad : {"0", "-1", "two", ""}) {
    CliRun run = RunCliCapture({"--threads", bad, "info", path_});
    EXPECT_EQ(run.exit_code, 1) << bad;
    EXPECT_NE(run.err.find("--threads must be a positive integer"), std::string::npos)
        << bad;
  }
}

TEST(CliBasicsTest, DanglingGlobalFlagNeedsValue) {
  CliRun run = RunCliCapture({"--threads"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("needs a value"), std::string::npos);
}

TEST_F(CliTest, PerfPrintsExecutionCounters) {
  CliRun run = RunCliCapture({"--threads", "2", "--perf", "yes", "aggregate", path_,
                              "--attrs", "gender", "--op", "union", "--t1", "t0",
                              "--t2", "t1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("perf: threads=2"), std::string::npos);
  EXPECT_NE(run.out.find("agg_rows="), std::string::npos);
  EXPECT_NE(run.out.find("agg_chunks="), std::string::npos);
  EXPECT_NE(run.out.find("pool_jobs="), std::string::npos);
  SetParallelism(1);
}

TEST(CliBackendsTest, BackendsCommandListsFeaturesAndActiveBackend) {
  CliRun run = RunCliCapture({"backends"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("cpu features:"), std::string::npos);
  EXPECT_NE(run.out.find("scalar"), std::string::npos);
  EXPECT_NE(run.out.find("[active]"), std::string::npos);
  // The reported active backend matches the registry's answer.
  EXPECT_NE(run.out.find(std::string("active: ") + accel::ActiveBackendName()),
            std::string::npos)
      << run.out;
}

TEST(CliBackendsTest, BackendFlagForcesAndRoundTrips) {
  CliRun run = RunCliCapture({"--backend", "scalar", "backends"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("active: scalar (forced via --backend)"), std::string::npos)
      << run.out;
  ASSERT_TRUE(accel::SetActiveBackend("auto"));
}

TEST(CliBackendsTest, UnknownBackendIsHardError) {
  CliRun run = RunCliCapture({"--backend", "sse9", "backends"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown backend"), std::string::npos) << run.err;
}

TEST_F(CliTest, PerfLineCarriesBackendName) {
  CliRun run = RunCliCapture({"--backend", "scalar", "--perf", "aggregate", path_,
                              "--attrs", "gender", "--op", "union", "--t1", "t0",
                              "--t2", "t1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("backend=scalar"), std::string::npos) << run.out;
  ASSERT_TRUE(accel::SetActiveBackend("auto"));
}

TEST_F(CliTest, NoPerfFlagPrintsNoCounters) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op", "union",
                              "--t1", "t0", "--t2", "t1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out.find("perf:"), std::string::npos);
}

TEST_F(CliTest, AggregateBadSemanticsFails) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--t1", "t0",
                    "--semantics", "weird"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--semantics"), std::string::npos);
}

// --- Query-engine options (--explain / --materialize) ---------------------------------

TEST_F(CliTest, AggregateExplainPrintsPlanWithoutExecuting) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op", "union",
                    "--t1", "t0..t2", "--semantics", "all", "--explain", "yes"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("route=direct"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("operator/union"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("aggregate on"), std::string::npos);  // no result output
}

TEST_F(CliTest, AggregateExplainShowsMaterializedRoute) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op", "union",
                    "--t1", "t0..t2", "--semantics", "all", "--materialize", "yes",
                    "--explain", "yes"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("route=materialized"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("combine"), std::string::npos) << run.out;
}

// Regression: the retired grouping flag's `dense` value used to force the
// dense table and abort the process when the attribute domain was too wide for it. Grouping now follows
// the domains alone, so the retired flag changes nothing.
TEST(CliGroupingTest, RetiredDenseFlagOnAWideDomainAnswersLikeNoFlag) {
  TemporalGraph graph = testing::BuildRandomGraph(
      /*seed=*/23, /*num_nodes=*/300, /*num_times=*/4, /*presence_p=*/0.5,
      /*colors=*/40, /*levels=*/30, /*edge_p=*/0.05);
  ASSERT_FALSE(
      ResolveGrouping(graph, ResolveAttributes(graph, {"color", "level"})).dense_edges)
      << "the edge domain must be too wide for the dense table";
  const std::string path = ::testing::TempDir() + "/graphtempo_cli_wide_" +
                           std::to_string(getpid()) + ".tsv";
  std::string error;
  ASSERT_TRUE(WriteGraphToFile(graph, path, &error)) << error;

  const std::vector<std::string> query = {"aggregate", path,  "--attrs", "color,level",
                                          "--op",      "project", "--t1", "t0"};
  CliRun plain = RunCliCapture(query);
  // Spelled in pieces: the flag is gone from the CLI and its help.
  const std::string retired_flag = std::string("--") + "grouping";
  std::vector<std::string> hinted_args = query;
  hinted_args.insert(hinted_args.end(), {retired_flag, "dense"});
  CliRun hinted = RunCliCapture(hinted_args);
  std::remove(path.c_str());

  ASSERT_EQ(plain.exit_code, 0) << plain.err;
  EXPECT_EQ(hinted.exit_code, 0) << hinted.err;
  EXPECT_EQ(hinted.out, plain.out);
}

TEST_F(CliTest, ExplainRendersBothCostEstimates) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op", "union",
                              "--t1", "t0..t2", "--semantics", "all", "--materialize",
                              "yes", "--explain", "yes"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out.find("planner="), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("estimate direct="), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("materialized="), std::string::npos) << run.out;
}

TEST_F(CliTest, ServeBatchWindowGarbageIsHardError) {
  CliRun run = RunCliCapture({"serve", path_, "--batch-window-us", "soon"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--batch-window-us"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("soon"), std::string::npos) << run.err;
}

TEST(CliLoadgenTest, KeepAliveGarbageIsHardError) {
  // Fails on flag validation, before any connection attempt.
  CliRun run = RunCliCapture({"loadgen", "--port", "19", "--keep-alive", "maybe"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--keep-alive must be yes or no"), std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("maybe"), std::string::npos) << run.err;
}

TEST_F(CliTest, AggregateMaterializedMatchesDirect) {
  // Same tie-free configuration as above so both routes' weight-sorted
  // outputs are directly comparable.
  std::vector<std::string> direct = {"aggregate", path_, "--attrs", "gender", "--op",
                                     "union", "--t1", "t0..t1", "--semantics", "all"};
  std::vector<std::string> derived = direct;
  derived.insert(derived.end(), {"--materialize", "yes"});
  CliRun direct_run = RunCliCapture(direct);
  CliRun derived_run = RunCliCapture(derived);
  EXPECT_EQ(direct_run.exit_code, 0) << direct_run.err;
  EXPECT_EQ(derived_run.exit_code, 0) << derived_run.err;
  EXPECT_EQ(direct_run.out, derived_run.out);
}

TEST_F(CliTest, HelpDocumentsQueryEngineFlags) {
  CliRun run = RunCliCapture({"--help"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("--explain"), std::string::npos);
  EXPECT_NE(run.out.find("--materialize"), std::string::npos);
}

TEST_F(CliTest, EvolutionPrintsTransitions) {
  CliRun run = RunCliCapture({"evolution", path_, "--attrs", "gender,publications", "--old", "t0",
                    "--new", "t1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  // (f,1): stability 1, growth 1, shrinkage 1 (the paper's Fig 4b example).
  EXPECT_NE(run.out.find("(f,1)  1/1/1"), std::string::npos);
}

TEST_F(CliTest, ExploreFindsStablePairs) {
  CliRun run = RunCliCapture({"explore", path_, "--event", "stability", "--semantics",
                    "intersection", "--k", "1", "--kind", "edges"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("maximal interval pairs"), std::string::npos);
  EXPECT_NE(run.out.find("old [t0..t0]  new [t1..t2]"), std::string::npos);
}

TEST_F(CliTest, ExploreWithTupleFilter) {
  CliRun run = RunCliCapture({"explore", path_, "--event", "stability", "--semantics",
                    "intersection", "--k", "1", "--attrs", "gender", "--src", "f",
                    "--dst", "f"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("events 1"), std::string::npos);
}

TEST_F(CliTest, ExploreStrategiesAgree) {
  std::vector<std::string> base = {"explore",     path_,   "--event", "growth",
                                   "--semantics", "union", "--k",     "1"};
  CliRun pruned = RunCliCapture(base);
  std::vector<std::string> naive_args = base;
  naive_args.push_back("--strategy");
  naive_args.push_back("naive");
  CliRun naive = RunCliCapture(naive_args);
  ASSERT_EQ(pruned.exit_code, 0);
  ASSERT_EQ(naive.exit_code, 0);
  // Same pairs; possibly different evaluation counts. Compare the pair lines.
  auto pairs_only = [](const std::string& text) {
    std::string result;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
      if (line.find("old [") != std::string::npos) result += line + "\n";
    }
    return result;
  };
  EXPECT_EQ(pairs_only(pruned.out), pairs_only(naive.out));
}

TEST_F(CliTest, ExploreBothEndsStrategy) {
  CliRun run = RunCliCapture({"explore", path_, "--event", "shrinkage", "--semantics", "union",
                    "--k", "2", "--strategy", "both-ends"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("evaluations"), std::string::npos);
}

TEST_F(CliTest, ExploreMismatchedTupleArityFails) {
  CliRun run = RunCliCapture({"explore", path_, "--event", "stability", "--semantics", "union",
                    "--k", "1", "--attrs", "gender", "--src", "f,extra", "--dst", "f"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("arity"), std::string::npos);
}

TEST_F(CliTest, ExploreSrcWithoutDstFails) {
  CliRun run = RunCliCapture({"explore", path_, "--event", "stability", "--semantics", "union",
                    "--k", "1", "--attrs", "gender", "--src", "f"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("together"), std::string::npos);
}

TEST_F(CliTest, SuggestK) {
  CliRun run = RunCliCapture({"suggest-k", path_, "--event", "stability", "--kind", "edges"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("min 1, max 2"), std::string::npos);
}


TEST_F(CliTest, ImportEdgeListWithAttributes) {
  std::string edges_path = path_ + ".edges";
  std::string gender_path = path_ + ".gender";
  std::string out_path = path_ + ".imported";
  {
    std::ofstream edges(edges_path);
    edges << "a\tb\t2000\nb\tc\t2001\n";
    std::ofstream gender(gender_path);
    gender << "a\tf\nb\tm\nc\tf\n";
  }
  CliRun run = RunCliCapture({"import", edges_path, out_path, "--static",
                              "gender:" + gender_path});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  std::string error;
  std::optional<TemporalGraph> graph = ReadGraphFromFile(out_path, &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->num_nodes(), 3u);
  EXPECT_EQ(graph->num_edges(), 2u);
  EXPECT_TRUE(graph->FindAttribute("gender").has_value());
  std::remove(edges_path.c_str());
  std::remove(gender_path.c_str());
  std::remove(out_path.c_str());
}

TEST_F(CliTest, ImportBadAttributeSpecFails) {
  std::string edges_path = path_ + ".edges2";
  {
    std::ofstream edges(edges_path);
    edges << "a\tb\t2000\n";
  }
  CliRun run = RunCliCapture({"import", edges_path, "/tmp/ignored.tsv", "--static",
                              "nocolon"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("name:path"), std::string::npos);
  std::remove(edges_path.c_str());
}

TEST_F(CliTest, ImportMissingEdgeFileFails) {
  CliRun run = RunCliCapture({"import", "/nonexistent/e.tsv", "/tmp/ignored.tsv"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("cannot open"), std::string::npos);
}


TEST_F(CliTest, MeasureSumOverEdgeAttribute) {
  // Extend the paper graph with a numeric edge attribute and query it.
  TemporalGraph graph = testing::BuildPaperGraph();
  std::uint32_t papers = graph.AddTimeVaryingEdgeAttribute("papers");
  EdgeId e = *graph.FindEdge(*graph.FindNode("u1"), *graph.FindNode("u2"));
  graph.SetTimeVaryingEdgeValue(papers, e, 0, "2");
  graph.SetTimeVaryingEdgeValue(papers, e, 1, "1");
  std::string measured_path = path_ + ".measured";
  std::string error;
  ASSERT_TRUE(WriteGraphToFile(graph, measured_path, &error)) << error;

  CliRun run = RunCliCapture({"measure", measured_path, "--attrs", "gender",
                              "--measure", "papers", "--fn", "sum", "--op", "union",
                              "--t1", "t0", "--t2", "t1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("sum(papers)"), std::string::npos);
  EXPECT_NE(run.out.find("(m) -> (f)  3"), std::string::npos);
  std::remove(measured_path.c_str());
}

TEST_F(CliTest, MeasureUnknownEdgeAttributeFails) {
  CliRun run = RunCliCapture({"measure", path_, "--attrs", "gender", "--measure",
                              "nope", "--fn", "sum", "--t1", "t0"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown edge attribute"), std::string::npos);
}

TEST_F(CliTest, CoarsenHalvesTimeDomain) {
  std::string out_path = path_ + ".coarse";
  CliRun run = RunCliCapture({"coarsen", path_, out_path, "--width", "2"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  std::string error;
  std::optional<TemporalGraph> coarse = ReadGraphFromFile(out_path, &error);
  ASSERT_TRUE(coarse.has_value()) << error;
  EXPECT_EQ(coarse->num_times(), 2u);
  EXPECT_EQ(coarse->time_label(0), "t0..t1");
  std::remove(out_path.c_str());
}

TEST_F(CliTest, CoarsenRequiresWidth) {
  CliRun run = RunCliCapture({"coarsen", path_, "/tmp/ignored.tsv"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--width"), std::string::npos);
}


TEST_F(CliTest, StatsShowsSnapshotAndHistograms) {
  CliRun run = RunCliCapture({"stats", path_, "--t", "t0", "--attr", "gender"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("snapshot t0: 4 nodes, 4 edges"), std::string::npos);
  EXPECT_NE(run.out.find("out-degree histogram"), std::string::npos);
  EXPECT_NE(run.out.find("gender distribution at t0: f:3 m:1"), std::string::npos);
}

TEST_F(CliTest, StatsUnknownAttributeFails) {
  CliRun run = RunCliCapture({"stats", path_, "--attr", "nope"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown attribute"), std::string::npos);
}


TEST_F(CliTest, AggregateSymmetricMergesMirroredPairs) {
  // At t2 the paper graph has f->m edges only; symmetric output shows them
  // under one canonical orientation regardless of stored direction.
  CliRun plain = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op",
                                "project", "--t1", "t2"});
  CliRun symmetric = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op",
                                    "project", "--t1", "t2", "--symmetric", "yes"});
  EXPECT_EQ(plain.exit_code, 0) << plain.err;
  EXPECT_EQ(symmetric.exit_code, 0) << symmetric.err;
  EXPECT_NE(plain.out.find("(f) -> (m)  2"), std::string::npos);
  // Same total weight either way; the symmetric run never shows both
  // orientations of the same pair.
  EXPECT_EQ(symmetric.out.find("(m) -> (f)") != std::string::npos &&
                symmetric.out.find("(f) -> (m)") != std::string::npos,
            false);
}

TEST(CliGenerateTest, GeneratesContactNetwork) {
  std::string out_path = ::testing::TempDir() + "/graphtempo_cli_contact_" +
      std::to_string(getpid()) + ".tsv";
  CliRun run = RunCliCapture({"generate", "contact", out_path});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  std::string error;
  std::optional<TemporalGraph> graph = ReadGraphFromFile(out_path, &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->num_times(), 15u);
  EXPECT_GT(graph->num_nodes(), 0u);
  std::remove(out_path.c_str());
}

TEST(CliGenerateTest, UnknownDatasetFails) {
  CliRun run = RunCliCapture({"generate", "imdb", "/tmp/x.tsv"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown dataset"), std::string::npos);
}

TEST(CliGenerateTest, BadSeedFails) {
  CliRun run = RunCliCapture({"generate", "contact", "/tmp/x.tsv", "--seed", "abc"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--seed"), std::string::npos);
}

// --- observability flags and the metrics command (docs/OBSERVABILITY.md) --------

TEST_F(CliTest, BarePerfAfterCommandPrintsCounters) {
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op",
                              "project", "--t1", "t0", "--perf"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("perf: threads="), std::string::npos);
  EXPECT_NE(run.out.find("agg_rows="), std::string::npos);
}

TEST_F(CliTest, BarePerfBeforeCommandPrintsCounters) {
  CliRun run = RunCliCapture({"--perf", "info", path_});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("perf: threads="), std::string::npos);
}

TEST_F(CliTest, ExplicitPerfValuesStillWork) {
  CliRun yes = RunCliCapture({"info", path_, "--perf", "yes"});
  EXPECT_EQ(yes.exit_code, 0) << yes.err;
  EXPECT_NE(yes.out.find("perf: threads="), std::string::npos);
  CliRun no = RunCliCapture({"info", path_, "--perf", "no"});
  EXPECT_EQ(no.exit_code, 0) << no.err;
  EXPECT_EQ(no.out.find("perf:"), std::string::npos);
}

TEST_F(CliTest, BadPerfValueIsRejected) {
  CliRun run = RunCliCapture({"info", path_, "--perf", "maybe"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--perf must be yes or no"), std::string::npos);
  EXPECT_NE(run.err.find("maybe"), std::string::npos);
}

TEST_F(CliTest, TraceWritesChromeTraceJson) {
  std::string trace_path = ::testing::TempDir() + "/graphtempo_cli_trace_" +
      std::to_string(getpid()) + ".json";
  CliRun run = RunCliCapture({"aggregate", path_, "--attrs", "gender", "--op",
                              "project", "--t1", "t0", "--trace", trace_path});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("trace: wrote"), std::string::npos);
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << trace_path;
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(content.str().find("agg/aggregate"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(CliTest, BareTraceDefaultsToTraceJson) {
  // Bare --trace before the command: the command name must not be eaten as
  // the flag's value; the default path trace.json is used instead.
  CliRun run = RunCliCapture({"--trace", "info", path_});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("trace.json"), std::string::npos);
  std::remove("trace.json");
}

TEST_F(CliTest, EmptyTracePathIsRejected) {
  CliRun run = RunCliCapture({"info", path_, "--trace", ""});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--trace needs a non-empty path"), std::string::npos);
}

TEST(CliMetricsTest, TextDumpShowsGeneration) {
  CliRun run = RunCliCapture({"metrics"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("generation"), std::string::npos);
}

TEST(CliMetricsTest, JsonDumpIsAJsonObject) {
  CliRun run = RunCliCapture({"metrics", "--format", "json"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out.rfind("{\"generation\":", 0), 0u) << run.out.substr(0, 80);
}

TEST(CliMetricsTest, UnknownFormatIsRejected) {
  CliRun run = RunCliCapture({"metrics", "--format", "xml"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--format must be text or json"), std::string::npos);
}

TEST(CliMetricsTest, HelpDocumentsTheObservabilityFlags) {
  CliRun run = RunCliCapture({"help"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("metrics"), std::string::npos);
  EXPECT_NE(run.out.find("--trace"), std::string::npos);
  EXPECT_NE(run.out.find("--perf"), std::string::npos);
}

// --- Option-parsing edge cases ------------------------------------------------------

std::size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// Regression: a repeated flag used to silently overwrite the earlier value
// (last one won, invisibly). It must be a hard error.
TEST_F(CliTest, DuplicateFlagIsAnError) {
  CliRun run = RunCliCapture(
      {"operate", path_, "--op", "union", "--op", "intersection", "--t1", "t0"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--op given more than once"), std::string::npos) << run.err;
}

TEST_F(CliTest, DuplicateGlobalFlagBeforeCommandIsAnError) {
  CliRun run = RunCliCapture({"--threads", "2", "--threads", "3", "info", path_});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--threads given more than once"), std::string::npos);
}

TEST_F(CliTest, GlobalFlagRepeatedAfterCommandIsAnError) {
  CliRun run = RunCliCapture({"--threads", "2", "info", path_, "--threads", "3"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--threads given more than once"), std::string::npos);
}

TEST_F(CliTest, DuplicateBareFlagIsAnError) {
  CliRun run = RunCliCapture({"info", path_, "--perf", "--perf"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--perf given more than once"), std::string::npos);
}

// Regression: a bad range used to emit one "unknown time point" per endpoint
// — two diagnostics for one mistake. Parsing must short-circuit.
TEST_F(CliTest, BadRangeYieldsExactlyOneDiagnostic) {
  CliRun run = RunCliCapture({"operate", path_, "--op", "union", "--t1", "t7..t9"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.err, "unknown time point"), 1u) << run.err;
  EXPECT_NE(run.err.find("'t7'"), std::string::npos) << run.err;  // first endpoint
}

TEST_F(CliTest, BadSecondEndpointAlsoSingleDiagnostic) {
  CliRun run = RunCliCapture({"operate", path_, "--op", "union", "--t1", "t0..t9"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.err, "unknown time point"), 1u) << run.err;
  EXPECT_NE(run.err.find("'t9'"), std::string::npos) << run.err;
}

TEST_F(CliTest, InvertedRangeFails) {
  CliRun run = RunCliCapture({"operate", path_, "--op", "union", "--t1", "t2..t0"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("inverted range"), std::string::npos);
}

TEST_F(CliTest, ThreadsRejectsAbsurdlyLargeValues) {
  CliRun run = RunCliCapture({"--threads", "100000", "info", path_});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("must be between 1 and"), std::string::npos) << run.err;
}

// --- serve observability flags ----------------------------------------------

TEST_F(CliTest, ServeRejectsGarbageSlowQueryMs) {
  for (const char* bad : {"banana", "-5", "1.5", ""}) {
    CliRun run = RunCliCapture(
        {"serve", path_, "--port", "0", "--slow-query-ms", bad});
    EXPECT_EQ(run.exit_code, 1) << "accepted '" << bad << "'";
    EXPECT_NE(run.err.find("--slow-query-ms must be a non-negative integer"),
              std::string::npos)
        << run.err;
  }
}

TEST_F(CliTest, ServeDuplicateSlowQueryMsIsAnError) {
  CliRun run = RunCliCapture({"serve", path_, "--port", "0", "--slow-query-ms",
                              "5", "--slow-query-ms", "6"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--slow-query-ms given more than once"),
            std::string::npos)
      << run.err;
}

TEST_F(CliTest, ServeWithTraceWritesChromeTraceJson) {
  // The global --trace flag must cover the serving path too: the session is
  // finished by RunCli after the serve loop exits on its deadline.
  std::string trace_path = ::testing::TempDir() + "/graphtempo_serve_trace_" +
                           std::to_string(getpid()) + ".json";
  CliRun run = RunCliCapture({"serve", path_, "--port", "0",
                              "--duration-seconds", "1", "--trace", trace_path});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("shut down cleanly"), std::string::npos) << run.out;
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << trace_path;
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str().rfind("{\"traceEvents\":[", 0), 0u);
  std::remove(trace_path.c_str());
}

TEST(CliFlightrecTest, FlightrecRequiresAPort) {
  CliRun run = RunCliCapture({"flightrec"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("usage: graphtempo flightrec"), std::string::npos)
      << run.err;
}

TEST(CliFlightrecTest, FlightrecReportsAnUnreachableServer) {
  // Port 1 is reserved and never bound by these tests: the fetch must fail
  // with a diagnostic, not hang or crash.
  CliRun run = RunCliCapture({"flightrec", "--port", "1"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("error:"), std::string::npos) << run.err;
}

TEST(CliMetricsTest, HelpDocumentsServeObservability) {
  CliRun run = RunCliCapture({"help"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("--slow-query-ms"), std::string::npos);
  EXPECT_NE(run.out.find("--flight-dump"), std::string::npos);
  EXPECT_NE(run.out.find("flightrec"), std::string::npos);
}

TEST_F(CliTest, BareExplainAdjacentToOtherFlagsWorks) {
  CliRun run = RunCliCapture(
      {"aggregate", path_, "--explain", "--attrs", "gender", "--t1", "t0"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("route"), std::string::npos);
}

}  // namespace
}  // namespace graphtempo
