#ifndef GRAPHTEMPO_ENGINE_QUERY_SPEC_H_
#define GRAPHTEMPO_ENGINE_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/exploration.h"
#include "core/interval.h"
#include "core/operators.h"
#include "core/temporal_graph.h"

/// \file
/// `QuerySpec`: the declarative intermediate representation of one GraphTempo
/// aggregation query (docs/ENGINE.md).
///
/// Every entry point — CLI commands, the figure benches, the OLAP cube —
/// ultimately asks the same question: "apply a temporal operator to (T₁, T₂),
/// aggregate the resulting view over some attributes under DIST or ALL, maybe
/// filter / symmetrize". `QuerySpec` captures exactly that tuple, so one
/// planner can decide *how* to answer it (direct kernels vs Section 4.3
/// derivations) and one executor can cache the answers.
///
/// The spec carries a canonical 64-bit fingerprint — a stable FNV-1a hash over
/// its dictionary-encoded fields — used as the executor's result-cache key.
/// Two specs that fingerprint equally describe the same query on the same
/// time domain (modulo the ignored-`t2`-for-project normalization below);
/// collisions are guarded by a full equality check on the cached spec.

namespace graphtempo::engine {

/// Which of the Section 2.1 temporal operators produces the aggregated view.
enum class TemporalOperatorKind : std::uint8_t {
  kProject,        ///< Def 2.2 — entities existing throughout T₁ (t2 ignored)
  kUnion,          ///< Def 2.3 — entities existing in T₁ or T₂
  kIntersection,   ///< Def 2.4 — entities existing in T₁ and T₂
  kDifference,     ///< Def 2.5 — edges in T₁ at no time of T₂ (t1 − t2)
};

/// "project" / "union" / "intersection" / "difference".
const char* TemporalOperatorName(TemporalOperatorKind op);

/// Which operator *family* the spec describes. Historically only the four
/// Section 2.1 aggregation operators went through the engine; evolution
/// (Def 2.7 / Fig 4b) and exploration (Section 3) called core directly and
/// so bypassed planning, caching and batching. They are now spec kinds:
/// one planner routes them, one executor caches them.
enum class QueryKind : std::uint8_t {
  kAggregate,  ///< op × (t1, t2) × attrs × semantics — the original family
  kEvolution,  ///< AggregateEvolution(t1=old, t2=new, attrs)
  kExplore,    ///< Explore(explore) — t1 must be the full time domain
};

/// "aggregate" / "evolution" / "explore".
const char* QueryKindName(QueryKind kind);

/// The IR of one aggregation query. Plain data; copyable; graph-independent
/// except that `t1`/`t2` must match the target graph's time-domain size and
/// `attrs` must reference its attribute tables.
struct QuerySpec {
  QueryKind kind = QueryKind::kAggregate;

  TemporalOperatorKind op = TemporalOperatorKind::kProject;
  IntervalSet t1;
  /// Ignored for kProject. Must share the graph's time domain otherwise; may
  /// be empty for kUnion, which degenerates to the single-interval union over
  /// `t1` (the shape `AggregateCube::Query` issues).
  IntervalSet t2;

  std::vector<AttrRef> attrs;
  AggregationSemantics semantics = AggregationSemantics::kDistinct;

  /// Optional appearance filter. A non-null filter is an opaque function: the
  /// planner refuses derivation routes and the executor bypasses the result
  /// cache for such specs.
  const NodeTimeFilter* filter = nullptr;

  /// Post-aggregation mirror-edge merge (SymmetrizeAggregate).
  bool symmetrize = false;

  /// kExplore only: the full exploration request (event, extension
  /// semantics, reference end, entity selector, threshold k). For explore
  /// specs `t1` must be the graph's full time domain (the sweep reads every
  /// point) and `op`/`semantics`/`symmetrize` are ignored;
  /// `attrs` mirrors `explore.selector.attrs` for uniform rendering.
  ExplorationSpec explore;

  /// A spec is cacheable iff its result is a pure function of the fields the
  /// fingerprint covers — i.e. iff it carries no opaque filter.
  bool Cacheable() const { return filter == nullptr; }

  /// The time points the operator result is defined on (Defs 2.2–2.5):
  /// T₁ ∪ T₂ for union/intersection, T₁ for project and difference. For
  /// evolution both intervals participate; for explore it is `t1` (bound to
  /// the full domain).
  IntervalSet EvaluationInterval() const;

  /// The time points the *result data* depends on: T₁ ∪ T₂ for every
  /// operator consuming T₂ (a difference's answer changes when T₂'s data
  /// does, even though it is evaluated on T₁), T₁ alone for project. This is
  /// the validity interval of a cached result — if no dependency point was
  /// mutated since the result was computed, it is still exact. Evolution
  /// depends on both intervals; explore on the full domain (= `t1`).
  IntervalSet DependencyInterval() const;

  /// Stable 64-bit FNV-1a over (op, semantics, symmetrize, attrs, t1, t2)
  /// with t2 normalized to empty for kProject. Independent of process,
  /// pointer values and map iteration order. kAggregate specs hash exactly
  /// the historical byte sequence (cached fingerprints survive this
  /// refactor); evolution and explore specs prepend a kind tag so the
  /// families can never collide with aggregates by construction.
  std::uint64_t Fingerprint() const;

  /// Structural equality under the same normalization as `Fingerprint` (the
  /// executor's collision guard). Filters compare by pointer identity.
  bool EquivalentTo(const QuerySpec& other) const;

  /// One-line rendering, e.g.
  /// "union t1={0..3} t2={4} attrs=[gender,publications] semantics=ALL".
  std::string ToString(const TemporalGraph& graph) const;
};

/// Runs the spec's temporal operator on `graph` — the shared "build the view"
/// step of every plan route (and of callers, like `measure`, that aggregate
/// something other than COUNT over the same views). GT_CHECKs interval
/// domains like the underlying operators do.
GraphView BuildOperatorView(const TemporalGraph& graph, const QuerySpec& spec);

/// Same, but routes the presence folds through `folds` — the seam the batch
/// executor uses to share common interval folds across a batch of specs
/// (engine/batch.h). Bit-identical to the plain overload by construction:
/// the classic operators delegate to the provider-taking ones.
GraphView BuildOperatorView(const TemporalGraph& graph, const QuerySpec& spec,
                            PresenceFoldProvider& folds);

}  // namespace graphtempo::engine

#endif  // GRAPHTEMPO_ENGINE_QUERY_SPEC_H_
