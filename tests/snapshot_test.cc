/// Suite for the tiered storage layer (docs/STORAGE.md): the RLE presence
/// codec, the binary snapshot container + graph (de)serialization, and the
/// engine's spill tier.
///
/// Pinned contracts:
///   * `CompressedBitset` is an exact inverse pair (compress/decompress) for
///     every shape — empty, all-zero, dense, sparse, word-boundary sizes —
///     and `DecodeFrom` fails closed on truncated, over-covering or
///     padding-violating streams;
///   * save → load is lossless: the restored graph serializes byte-identically
///     to the original and answers every query identically, including folds
///     that force the lazy column decode;
///   * per-time mutation generations survive the round trip, so cache
///     validity bookkeeping resumes where it left off;
///   * a snapshot saved *before* a mutation restores the pre-mutation state
///     (save is a point-in-time copy, not a live view);
///   * truncated / bit-flipped / version-mismatched files fail closed with
///     one diagnostic — never a crash, never a partial graph;
///   * the engine's spill tier really round-trips: an evicted roll-up layer
///     is reloaded from disk (`storage/spill_in` > 0) and reused without
///     recomputing roll-ups, and an evicted cached result is served from its
///     spill file as a cache hit.

#include "core/graph_snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/graph_io.h"
#include "core/operators.h"
#include "core/temporal_graph.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "storage/compressed_bitset.h"
#include "storage/snapshot.h"
#include "storage/spill.h"
#include "test_graphs.h"
#include "util/check.h"

namespace graphtempo {
namespace {

using engine::QueryEngine;
using engine::QuerySpec;
using engine::TemporalOperatorKind;
using storage::ByteReader;
using storage::ByteWriter;
using storage::CompressedBitset;
using testing::BuildPaperGraph;
using testing::BuildRandomGraph;

std::string UniquePath(const std::string& stem) {
  return ::testing::TempDir() + "/gt_snapshot_" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         std::to_string(getpid());
}

// --- CompressedBitset ---

void ExpectRoundTrip(const DynamicBitset& bits) {
  CompressedBitset packed = CompressedBitset::Compress(bits);
  EXPECT_EQ(packed.size_bits(), bits.size());
  EXPECT_EQ(packed.Decompress(), bits);

  // And through the byte codec: EncodeTo ∘ DecodeFrom is also the identity.
  ByteWriter writer;
  packed.EncodeTo(&writer);
  ByteReader reader(writer.bytes());
  CompressedBitset decoded;
  ASSERT_TRUE(CompressedBitset::DecodeFrom(&reader, &decoded));
  EXPECT_EQ(decoded.Decompress(), bits);
}

TEST(CompressedBitsetTest, RoundTripsEveryShape) {
  ExpectRoundTrip(DynamicBitset(0));

  for (std::size_t size : {1u, 7u, 63u, 64u, 65u, 128u, 129u, 1000u}) {
    DynamicBitset all_zero(size);
    ExpectRoundTrip(all_zero);

    DynamicBitset dense(size);
    dense.SetAll();
    ExpectRoundTrip(dense);

    DynamicBitset sparse(size);
    sparse.Set(0);
    sparse.Set(size - 1);
    if (size > 2) sparse.Set(size / 2);
    ExpectRoundTrip(sparse);

    DynamicBitset striped(size);
    for (std::size_t i = 0; i < size; i += 3) striped.Set(i);
    ExpectRoundTrip(striped);
  }
}

TEST(CompressedBitsetTest, SparseSetsCompress) {
  // A million-bit column with a handful of survivors must collapse to a few
  // headers + literals, nowhere near the 125 KB raw footprint.
  DynamicBitset bits(1 << 20);
  bits.Set(17);
  bits.Set(500000);
  bits.Set((1 << 20) - 1);
  CompressedBitset packed = CompressedBitset::Compress(bits);
  EXPECT_LT(packed.encoded_bytes(), 100u);
  EXPECT_EQ(packed.Decompress(), bits);
}

TEST(CompressedBitsetTest, DecodeFailsClosedOnTruncation) {
  DynamicBitset bits(200);
  bits.Set(3);
  bits.Set(190);
  ByteWriter writer;
  CompressedBitset::Compress(bits).EncodeTo(&writer);
  const std::string& full = writer.bytes();

  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader reader(std::string_view(full).substr(0, len));
    CompressedBitset decoded;
    EXPECT_FALSE(CompressedBitset::DecodeFrom(&reader, &decoded))
        << "truncation to " << len << " bytes must not decode";
  }
}

TEST(CompressedBitsetTest, DecodeRejectsCoverageMismatch) {
  // Claims 128 bits (2 words) but the stream covers only one literal word.
  ByteWriter writer;
  writer.U64(128);                      // size_bits
  writer.U64(2);                        // stream word count
  writer.U64((0ull << 32) | 1ull);      // header: 0 zero words, 1 literal
  writer.U64(0xffffffffffffffffull);    // the single literal
  ByteReader reader(writer.bytes());
  CompressedBitset decoded;
  EXPECT_FALSE(CompressedBitset::DecodeFrom(&reader, &decoded));
}

TEST(CompressedBitsetTest, DecodeRejectsPaddingBits) {
  // Claims 10 bits but the final literal word sets bit 20 — garbage past the
  // logical size must fail closed, not leak into Count()/comparisons.
  ByteWriter writer;
  writer.U64(10);                       // size_bits
  writer.U64(2);                        // stream word count
  writer.U64((0ull << 32) | 1ull);      // header: 1 literal word
  writer.U64(1ull << 20);               // padding bit set
  ByteReader reader(writer.bytes());
  CompressedBitset decoded;
  EXPECT_FALSE(CompressedBitset::DecodeFrom(&reader, &decoded));
}

// --- Graph snapshot round trip ---

std::string SerializeGraph(const TemporalGraph& graph) {
  std::ostringstream out;
  WriteGraph(graph, &out);
  return out.str();
}

TEST(GraphSnapshotTest, SaveLoadIsLossless) {
  TemporalGraph graph = BuildRandomGraph(/*seed=*/99, /*num_nodes=*/60,
                                         /*num_times=*/7);
  const std::string path = UniquePath("lossless");
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(graph, path, &error)) << error;

  std::optional<TemporalGraph> loaded = LoadGraphSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  // The TSV serialization is a full structural fingerprint (labels,
  // dictionary order, presence, attribute values): byte equality here means
  // nothing was lost or reordered.
  EXPECT_EQ(SerializeGraph(graph), SerializeGraph(*loaded));

  // Folds force the lazy decode of every restored presence column.
  const IntervalSet all = IntervalSet::All(graph.num_times());
  EXPECT_EQ(loaded->node_presence_index().UnionOver(all.bits()),
            graph.node_presence_index().UnionOver(all.bits()));
  EXPECT_EQ(loaded->edge_presence_index().UnionOver(all.bits()),
            graph.edge_presence_index().UnionOver(all.bits()));
  EXPECT_EQ(loaded->node_presence_index().IntersectionOver(all.bits()),
            graph.node_presence_index().IntersectionOver(all.bits()));

  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, QueriesAnswerIdenticallyAfterRestart) {
  TemporalGraph graph = BuildRandomGraph(/*seed=*/7, /*num_nodes=*/50,
                                         /*num_times=*/6);
  const std::string path = UniquePath("queries");
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(graph, path, &error)) << error;
  std::optional<TemporalGraph> loaded = LoadGraphSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  const std::vector<AttrRef> attrs = {graph.FindAttribute("color").value(),
                                      graph.FindAttribute("level").value()};

  QueryEngine original(&graph);
  QueryEngine restarted(&*loaded);
  original.EnableMaterialization(attrs);
  restarted.EnableMaterialization(attrs);

  const std::size_t n = graph.num_times();
  std::vector<QuerySpec> corpus;
  for (auto op : {TemporalOperatorKind::kUnion, TemporalOperatorKind::kIntersection,
                  TemporalOperatorKind::kDifference}) {
    QuerySpec spec;
    spec.op = op;
    spec.t1 = IntervalSet::Range(n, 0, static_cast<TimeId>(n / 2));
    spec.t2 = IntervalSet::Point(n, static_cast<TimeId>(n - 1));
    spec.attrs = attrs;
    spec.semantics = AggregationSemantics::kAll;
    corpus.push_back(spec);
    spec.semantics = AggregationSemantics::kDistinct;
    corpus.push_back(spec);
  }
  for (const QuerySpec& spec : corpus) {
    EXPECT_EQ(original.Execute(spec), restarted.Execute(spec));
  }
  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, MutationGenerationsSurviveRestart) {
  TemporalGraph graph = BuildPaperGraph();
  // Age the graph so the generations are interesting, then append a point:
  // only the new point carries the latest stamp (append_time_test pins that);
  // the snapshot must preserve exactly this asymmetry, or a restarted
  // engine's per-entry cache validity would silently change.
  const TimeId added = graph.AppendTimePoint("t3");
  graph.SetNodePresent(0, added);

  const std::string path = UniquePath("generations");
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(graph, path, &error)) << error;
  std::optional<TemporalGraph> loaded = LoadGraphSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  EXPECT_EQ(loaded->mutation_generation(), graph.mutation_generation());
  ASSERT_EQ(loaded->num_times(), graph.num_times());
  for (TimeId t = 0; t < graph.num_times(); ++t) {
    EXPECT_EQ(loaded->time_mutation_generation(t), graph.time_mutation_generation(t))
        << "generation of time point " << t << " changed across restart";
  }

  // The bookkeeping behaves identically too: intervals untouched by the
  // append validate against the same stamps on both graphs.
  const std::size_t n = graph.num_times();
  const IntervalSet old_points = IntervalSet::Range(n, 0, 2);
  const std::uint64_t before_append = graph.time_mutation_generation(0);
  EXPECT_EQ(graph.IntervalUnchangedSince(old_points, before_append),
            loaded->IntervalUnchangedSince(old_points, before_append));
  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, SnapshotIsPointInTimeNotLiveView) {
  TemporalGraph graph = BuildPaperGraph();
  const std::string path = UniquePath("point_in_time");
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(graph, path, &error)) << error;
  const std::string at_save = SerializeGraph(graph);

  // Mutate after saving: the file must restore the pre-mutation state.
  const TimeId added = graph.AppendTimePoint("later");
  graph.SetNodePresent(1, added);

  std::optional<TemporalGraph> loaded = LoadGraphSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(SerializeGraph(*loaded), at_save);
  EXPECT_NE(SerializeGraph(*loaded), SerializeGraph(graph));
  std::remove(path.c_str());
}

// --- Fail-closed robustness ---

/// Writes `bytes` to a fresh file and attempts a load: must return nullopt
/// with a diagnostic, never crash or return a partial graph.
void ExpectLoadFails(const std::string& bytes, const std::string& stem) {
  const std::string path = UniquePath(stem);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::string error;
  std::optional<TemporalGraph> loaded = LoadGraphSnapshot(path, &error);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_FALSE(error.empty()) << "failure must carry an explanation";
  std::remove(path.c_str());
}

std::string ValidSnapshotBytes() {
  TemporalGraph graph = BuildPaperGraph();
  const std::string path = UniquePath("valid_bytes");
  std::string error;
  GT_CHECK(SaveGraphSnapshot(graph, path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(SnapshotRobustnessTest, MissingFileFailsWithDiagnostic) {
  std::string error;
  EXPECT_EQ(LoadGraphSnapshot("/nonexistent/dir/graph.snap", &error), std::nullopt);
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotRobustnessTest, EveryTruncationFailsClosed) {
  const std::string full = ValidSnapshotBytes();
  ASSERT_GT(full.size(), 64u);
  // Every prefix is invalid: the header's payload size (and then the
  // checksum) can never match a shortened file.
  for (std::size_t len = 0; len < full.size(); len += 3) {
    ExpectLoadFails(full.substr(0, len), "trunc");
  }
}

TEST(SnapshotRobustnessTest, BadMagicFailsClosed) {
  std::string bytes = ValidSnapshotBytes();
  bytes[0] = 'X';
  ExpectLoadFails(bytes, "magic");
}

TEST(SnapshotRobustnessTest, VersionMismatchFailsClosed) {
  std::string bytes = ValidSnapshotBytes();
  bytes[8] = 99;  // version u32 lives at offset 8
  ExpectLoadFails(bytes, "version");
}

TEST(SnapshotRobustnessTest, PayloadBitFlipsFailClosed) {
  // The FNV-1a checksum covers the whole payload: flipping any payload byte
  // must be caught before section decoding even starts.
  std::string bytes = ValidSnapshotBytes();
  for (std::size_t pos = 32; pos < bytes.size(); pos += 17) {
    std::string mangled = bytes;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x40);
    ExpectLoadFails(mangled, "bitflip");
  }
}

TEST(SnapshotRobustnessTest, ContainerRejectsGarbageAndShortFiles) {
  ExpectLoadFails("", "empty");
  ExpectLoadFails("not a snapshot at all", "garbage");
  ExpectLoadFails(std::string(1024, '\0'), "zeros");
}

// --- Engine spill tier ---

class SpillTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spill_dir_ = UniquePath("spill");
    std::filesystem::remove_all(spill_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(spill_dir_); }

  std::string spill_dir_;
};

TEST_F(SpillTierTest, EvictedLayerIsReloadedNotRecomputed) {
  TemporalGraph graph = BuildRandomGraph(/*seed=*/21, /*num_nodes=*/40,
                                         /*num_times=*/6);
  const std::vector<AttrRef> base = {graph.FindAttribute("color").value(),
                                     graph.FindAttribute("level").value()};

  QueryEngine::Config config;
  config.spill_dir = spill_dir_;
  config.max_resident_layers = 1;  // the second layer evicts the first
  QueryEngine engine(&graph, config);
  engine.EnableMaterialization(base);

  const std::size_t n = graph.num_times();
  auto subset_union = [&](const AttrRef& attr) {
    QuerySpec spec;
    spec.op = TemporalOperatorKind::kUnion;
    spec.t1 = IntervalSet::All(n);
    spec.t2 = IntervalSet(n);
    spec.attrs = {attr};
    spec.semantics = AggregationSemantics::kAll;
    return spec;
  };
  // Pin the materialized route: these specs must go through the roll-up
  // layers whatever the cost model would pick on so small a graph.
  QueryEngine::PlanOptions derive;
  derive.force_route = engine::PlanRoute::kMaterializedDerivation;

  // Build the {color} layer, then the {level} layer: with one resident slot
  // the first build spills to disk instead of being dropped.
  const obs::MetricsSnapshot start = obs::Registry::Instance().Snapshot();
  const AggregateGraph first = engine.Execute(subset_union(base[0]), derive);
  engine.Execute(subset_union(base[1]), derive);
  const obs::MetricsSnapshot after_build = obs::Registry::Instance().Snapshot();
  EXPECT_GT(after_build.CounterValue("engine/layer_spill") -
                start.CounterValue("engine/layer_spill"),
            0u);

  // Re-touching the spilled subset must reload the layer file — no roll-up
  // recomputation. ClearCache first so the result cache cannot answer.
  engine.ClearCache();
  const QueryEngine::DerivationStats rollups_before = engine.derivation_stats();
  const AggregateGraph again = engine.Execute(subset_union(base[0]), derive);
  const QueryEngine::DerivationStats rollups_after = engine.derivation_stats();
  const obs::MetricsSnapshot after_reload = obs::Registry::Instance().Snapshot();

  EXPECT_EQ(first, again);
  EXPECT_GT(after_reload.CounterValue("engine/layer_reload") -
                after_build.CounterValue("engine/layer_reload"),
            0u);
  EXPECT_GT(after_reload.CounterValue("storage/spill_in") -
                after_build.CounterValue("storage/spill_in"),
            0u);
  EXPECT_EQ(rollups_after.rollups, rollups_before.rollups)
      << "a reloaded layer must not recompute roll-ups";
}

TEST_F(SpillTierTest, EvictedResultIsServedFromSpill) {
  TemporalGraph graph = BuildRandomGraph(/*seed=*/33, /*num_nodes=*/40,
                                         /*num_times=*/6);
  const std::vector<AttrRef> attrs = {graph.FindAttribute("color").value()};

  QueryEngine::Config config;
  config.spill_dir = spill_dir_;
  config.cache_capacity = 1;  // every second distinct result evicts the first
  QueryEngine engine(&graph, config);

  const std::size_t n = graph.num_times();
  auto union_over = [&](TimeId last) {
    QuerySpec spec;
    spec.op = TemporalOperatorKind::kUnion;
    spec.t1 = IntervalSet::Range(n, 0, last);
    spec.t2 = IntervalSet(n);
    spec.attrs = attrs;
    spec.semantics = AggregationSemantics::kDistinct;  // direct route
    return spec;
  };

  const obs::MetricsSnapshot start = obs::Registry::Instance().Snapshot();
  const AggregateGraph first = engine.Execute(union_over(1));
  engine.Execute(union_over(2));  // evicts the first → spilled, not dropped
  const obs::MetricsSnapshot after_evict = obs::Registry::Instance().Snapshot();
  EXPECT_GT(after_evict.CounterValue("engine/result_spill") -
                start.CounterValue("engine/result_spill"),
            0u);

  const QueryEngine::CacheStats before = engine.cache_stats();
  const AggregateGraph again = engine.Execute(union_over(1));
  const QueryEngine::CacheStats after = engine.cache_stats();
  const obs::MetricsSnapshot after_reload = obs::Registry::Instance().Snapshot();

  EXPECT_EQ(first, again);
  EXPECT_GT(after_reload.CounterValue("engine/result_reload") -
                after_evict.CounterValue("engine/result_reload"),
            0u);
  EXPECT_EQ(after.hits, before.hits + 1)
      << "a spilled result must come back as a cache hit, not a recompute";
}

TEST_F(SpillTierTest, NoSpillDirectoryStillEvicts) {
  // Without a spill tier the cap must still hold (layers are dropped), and
  // re-touching a dropped layer recomputes it — the historical behaviour.
  TemporalGraph graph = BuildRandomGraph(/*seed=*/5, /*num_nodes=*/30,
                                         /*num_times=*/5);
  const std::vector<AttrRef> base = {graph.FindAttribute("color").value(),
                                     graph.FindAttribute("level").value()};

  QueryEngine::Config config;
  config.max_resident_layers = 1;
  QueryEngine engine(&graph, config);
  engine.EnableMaterialization(base);

  const std::size_t n = graph.num_times();
  auto subset_union = [&](const AttrRef& attr) {
    QuerySpec spec;
    spec.op = TemporalOperatorKind::kUnion;
    spec.t1 = IntervalSet::All(n);
    spec.t2 = IntervalSet(n);
    spec.attrs = {attr};
    spec.semantics = AggregationSemantics::kAll;
    return spec;
  };
  // Pin the materialized route: these specs must go through the roll-up
  // layers whatever the cost model would pick on so small a graph.
  QueryEngine::PlanOptions derive;
  derive.force_route = engine::PlanRoute::kMaterializedDerivation;

  const AggregateGraph first = engine.Execute(subset_union(base[0]), derive);
  engine.Execute(subset_union(base[1]), derive);
  engine.ClearCache();
  const QueryEngine::DerivationStats before = engine.derivation_stats();
  const AggregateGraph again = engine.Execute(subset_union(base[0]), derive);
  const QueryEngine::DerivationStats after = engine.derivation_stats();
  EXPECT_EQ(first, again);
  EXPECT_GT(after.rollups, before.rollups) << "dropped layers must recompute";
}

TEST(SpillDirectoryTest, PutGetRemoveRoundTrip) {
  const std::string dir = UniquePath("spilldir");
  std::filesystem::remove_all(dir);
  {
    storage::SpillDirectory spill(dir);
    ASSERT_TRUE(spill.ok()) << spill.error();
    EXPECT_EQ(spill.Get("absent"), std::nullopt);
    ASSERT_TRUE(spill.Put("layer_3", "payload bytes"));
    EXPECT_EQ(spill.Get("layer_3"), std::optional<std::string>("payload bytes"));
    ASSERT_TRUE(spill.Put("layer_3", "replaced"));
    EXPECT_EQ(spill.Get("layer_3"), std::optional<std::string>("replaced"));
    spill.Remove("layer_3");
    EXPECT_EQ(spill.Get("layer_3"), std::nullopt);
  }
  std::filesystem::remove_all(dir);
}

TEST(AggregateGraphCodecTest, EncodeDecodeRoundTrip) {
  TemporalGraph graph = BuildPaperGraph();
  const std::vector<AttrRef> attrs = {graph.FindAttribute("gender").value()};

  // One per-time-point ALL aggregate per time — the exact shape the spill
  // tier serializes.
  std::vector<AggregateGraph> layers;
  for (TimeId t = 0; t < graph.num_times(); ++t) {
    GraphView view = Project(graph, IntervalSet::Point(graph.num_times(), t));
    AggregationOptions options;
    options.semantics = AggregationSemantics::kAll;
    layers.push_back(Aggregate(graph, view, attrs, options));
  }

  const std::string bytes = EncodeAggregateGraphs(layers);
  std::vector<AggregateGraph> decoded;
  std::string error;
  ASSERT_TRUE(DecodeAggregateGraphs(bytes, &decoded, &error)) << error;
  ASSERT_EQ(decoded.size(), layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(decoded[i], layers[i]) << "layer " << i;
  }

  // Mangled bytes must read as a miss, not a wrong answer.
  for (std::size_t len = 0; len < bytes.size(); len += 13) {
    std::vector<AggregateGraph> out;
    std::string trunc_error;
    EXPECT_FALSE(DecodeAggregateGraphs(std::string_view(bytes).substr(0, len), &out,
                                       &trunc_error));
  }
}

}  // namespace
}  // namespace graphtempo
