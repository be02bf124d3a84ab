#ifndef GRAPHTEMPO_CORE_AGGREGATION_H_
#define GRAPHTEMPO_CORE_AGGREGATION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/operators.h"
#include "core/temporal_graph.h"
#include "util/check.h"

/// \file
/// Graph aggregation (Definition 2.6, Algorithm 2).
///
/// Aggregation groups the nodes of a graph (view) by the values of one or
/// more attributes; each distinct value tuple becomes an aggregate node, and
/// an aggregate edge (a', a'') exists when some original edge connects nodes
/// carrying those tuples. Weights are COUNTs, under two semantics:
///
///   * DIST — every (entity, tuple) combination counts once, regardless of how
///     many time points it appears at;
///   * ALL  — every (entity, time) appearance counts.
///
/// On a single time point the two coincide (paper, Fig 3). The implementation
/// follows Algorithm 2 plus the Section 4.2 optimization: when every
/// aggregation attribute is static, the per-time unpivot/deduplication is
/// skipped entirely (DIST) or replaced by a presence popcount (ALL).

namespace graphtempo {

/// A tuple of dictionary-encoded attribute values (one per aggregation
/// attribute, in the order the attributes were requested). Fixed capacity,
/// value type, hashable — the key of every aggregate map.
class AttrTuple {
 public:
  static constexpr std::size_t kMaxAttrs = 8;

  AttrTuple() = default;

  /// Builds a tuple from up to kMaxAttrs codes.
  static AttrTuple Of(std::initializer_list<AttrValueId> codes) {
    AttrTuple tuple;
    for (AttrValueId code : codes) tuple.Append(code);
    return tuple;
  }

  void Append(AttrValueId code) {
    GT_CHECK_LT(size_, kMaxAttrs) << "too many aggregation attributes";
    codes_[size_++] = code;
  }

  std::size_t size() const { return size_; }

  AttrValueId operator[](std::size_t i) const {
    GT_DCHECK(i < size_);
    return codes_[i];
  }

  bool operator==(const AttrTuple& other) const {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (codes_[i] != other.codes_[i]) return false;
    }
    return true;
  }

  /// FNV-1a over the used codes.
  std::size_t Hash() const {
    std::size_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size_; ++i) {
      h ^= codes_[i];
      h *= 1099511628211ull;
    }
    return h;
  }

 private:
  std::array<AttrValueId, kMaxAttrs> codes_ = {};
  std::uint8_t size_ = 0;
};

struct AttrTupleHash {
  std::size_t operator()(const AttrTuple& tuple) const { return tuple.Hash(); }
};

/// An ordered pair of attribute tuples: the key of an aggregate edge.
struct AttrTuplePair {
  AttrTuple src;
  AttrTuple dst;

  bool operator==(const AttrTuplePair&) const = default;
};

struct AttrTuplePairHash {
  std::size_t operator()(const AttrTuplePair& pair) const {
    std::size_t h = pair.src.Hash();
    h ^= pair.dst.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

/// COUNT weights. Signed so weight arithmetic (e.g. roll-up sums, deltas in
/// tests) cannot underflow silently.
using Weight = std::int64_t;

/// The aggregated graph G'(V', E', W_V', W_E') of Definition 2.6: aggregate
/// nodes keyed by attribute tuple, aggregate edges keyed by tuple pair, both
/// carrying COUNT weights.
class AggregateGraph {
 public:
  using NodeMap = std::unordered_map<AttrTuple, Weight, AttrTupleHash>;
  using EdgeMap = std::unordered_map<AttrTuplePair, Weight, AttrTuplePairHash>;

  /// Adds `weight` to the aggregate node `tuple` (inserting it at weight 0).
  void AddNodeWeight(const AttrTuple& tuple, Weight weight);

  /// Adds `weight` to the aggregate edge (src, dst).
  void AddEdgeWeight(const AttrTuple& src, const AttrTuple& dst, Weight weight);

  /// Weight of aggregate node `tuple`; 0 if the node is absent.
  Weight NodeWeight(const AttrTuple& tuple) const;

  /// Weight of aggregate edge (src, dst); 0 if absent.
  Weight EdgeWeight(const AttrTuple& src, const AttrTuple& dst) const;

  std::size_t NodeCount() const { return nodes_.size(); }
  std::size_t EdgeCount() const { return edges_.size(); }

  /// Sum of all node / edge weights.
  Weight TotalNodeWeight() const;
  Weight TotalEdgeWeight() const;

  const NodeMap& nodes() const { return nodes_; }
  const EdgeMap& edges() const { return edges_; }

  /// Structural + weight equality (map comparison).
  bool operator==(const AggregateGraph&) const = default;

 private:
  NodeMap nodes_;
  EdgeMap edges_;
};

/// DIST or ALL counting (see file comment).
enum class AggregationSemantics { kDistinct, kAll };

/// How Algorithm 2 groups tuples into aggregate nodes and edges.
///
/// The *dense* path packs each tuple into a mixed-radix integer over the
/// attribute dictionary domains and accumulates weights in flat arrays (one
/// add per appearance, no hashing); it applies when the packed cell space is
/// small (see `kDenseNodeCellsMax` / `kDenseEdgePairsMax`). The *hash* path
/// is the NodeMap/EdgeMap reference. Both produce identical AggregateGraphs;
/// the differential suite in tests/operator_kernel_test.cc pins this.
enum class GroupingStrategy {
  kAuto,   ///< dense when the packed domain fits the thresholds (default)
  kDense,  ///< force dense; GT_CHECKs that the domain fits
  kHash,   ///< force the hash-map reference path
};

/// kAuto thresholds: a dense node table holds at most this many cells, and a
/// dense edge table at most this many cell *pairs* (the edge table is the
/// square of the node domain). 2 MiB / 8 MiB of Weight per chunk at most.
inline constexpr std::size_t kDenseNodeCellsMax = std::size_t{1} << 18;
inline constexpr std::size_t kDenseEdgePairsMax = std::size_t{1} << 20;

/// Optional predicate limiting which (node, time) appearances participate in
/// an aggregation; used e.g. by the paper's Fig 12 ("authors with
/// #publications > 4"). An edge appearance at time t participates only if
/// both endpoints pass the filter at t.
using NodeTimeFilter = std::function<bool(NodeId, TimeId)>;

struct AggregationOptions {
  AggregationSemantics semantics = AggregationSemantics::kDistinct;
  const NodeTimeFilter* filter = nullptr;
  GroupingStrategy grouping = GroupingStrategy::kAuto;
};

/// Which grouping paths Algorithm 2 will take for `attrs` on `graph` under
/// `GroupingStrategy::kAuto` — the same domain-size inspection `Aggregate`
/// performs, exposed so the query planner can render its grouping decision
/// in `QueryPlan::Explain` without running the aggregation (docs/ENGINE.md).
/// Pure dictionary arithmetic; no data scan.
struct GroupingResolution {
  bool dense_nodes = false;  ///< node side uses the flat dense table
  bool dense_edges = false;  ///< edge side uses the flat dense pair table
};

GroupingResolution ResolveGrouping(const TemporalGraph& graph,
                                   std::span<const AttrRef> attrs);

/// Evaluates the attribute tuple of node `n` at time `t` for the given
/// aggregation attributes.
AttrTuple TupleAt(const TemporalGraph& graph, std::span<const AttrRef> attrs, NodeId n,
                  TimeId t);

/// Aggregates `view` (the output of a temporal operator, or of Project for a
/// snapshot) over `attrs` under `options` — Algorithm 2 of the paper.
AggregateGraph Aggregate(const TemporalGraph& graph, const GraphView& view,
                         std::span<const AttrRef> attrs, const AggregationOptions& options);

/// Convenience overload: DIST, no filter.
AggregateGraph Aggregate(const TemporalGraph& graph, const GraphView& view,
                         std::span<const AttrRef> attrs,
                         AggregationSemantics semantics = AggregationSemantics::kDistinct);

/// Reference implementation without the static-only fast paths: always walks
/// (entity, time) appearances and always groups through the hash maps
/// (GroupingStrategy::kHash), whatever `options.grouping` says. Used by tests
/// to pin the fast paths and by the ablation benchmark.
AggregateGraph AggregateGeneralPath(const TemporalGraph& graph, const GraphView& view,
                                    std::span<const AttrRef> attrs,
                                    const AggregationOptions& options);

/// Merges mirrored aggregate edges: the weights of (a, b) and (b, a) are
/// summed under the canonical orientation (lower tuple first, by code
/// sequence). For conceptually undirected graphs — co-rating, face-to-face
/// contact — where ingestion stored one arbitrary direction per pair, this
/// yields orientation-independent aggregate edges. Self-pairs (a, a) are
/// unchanged. Node weights are copied verbatim.
AggregateGraph SymmetrizeAggregate(const AggregateGraph& aggregate);

/// Renders a tuple as "f,3" using the attribute dictionaries ("∅" for unset).
std::string FormatTuple(const TemporalGraph& graph, std::span<const AttrRef> attrs,
                        const AttrTuple& tuple);

/// Looks up attribute references by name; GT_CHECKs that each exists.
std::vector<AttrRef> ResolveAttributes(const TemporalGraph& graph,
                                       std::initializer_list<std::string_view> names);
std::vector<AttrRef> ResolveAttributes(const TemporalGraph& graph,
                                       const std::vector<std::string>& names);

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_AGGREGATION_H_
