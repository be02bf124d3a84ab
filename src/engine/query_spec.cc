#include "engine/query_spec.h"

#include "util/check.h"

namespace graphtempo::engine {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void HashByte(std::uint64_t* h, std::uint8_t byte) {
  *h ^= byte;
  *h *= kFnvPrime;
}

void HashU64(std::uint64_t* h, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    HashByte(h, static_cast<std::uint8_t>(value >> shift));
  }
}

/// Hashes membership only, never the domain size: appending a time point
/// grows the domain of every interval parsed afterwards, and a spec naming
/// the same set of time points must keep the same fingerprint so cached
/// answers for old intervals stay reachable (append-only ingestion).
void HashInterval(std::uint64_t* h, const IntervalSet& interval) {
  HashU64(h, interval.Count());
  interval.ForEach([&](TimeId t) { HashU64(h, t); });
}

/// t2 does not participate in a projection's result; normalize it away so
/// syntactically different but semantically identical specs share a cache
/// entry.
bool UsesT2(TemporalOperatorKind op) { return op != TemporalOperatorKind::kProject; }

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kEvolution: return "evolution";
    case QueryKind::kExplore: return "explore";
  }
  return "?";
}

const char* TemporalOperatorName(TemporalOperatorKind op) {
  switch (op) {
    case TemporalOperatorKind::kProject: return "project";
    case TemporalOperatorKind::kUnion: return "union";
    case TemporalOperatorKind::kIntersection: return "intersection";
    case TemporalOperatorKind::kDifference: return "difference";
  }
  return "?";
}

IntervalSet QuerySpec::EvaluationInterval() const {
  if (kind == QueryKind::kEvolution) return t1 | t2;
  if (kind == QueryKind::kExplore) return t1;
  switch (op) {
    case TemporalOperatorKind::kProject:
    case TemporalOperatorKind::kDifference:
      return t1;
    case TemporalOperatorKind::kUnion:
    case TemporalOperatorKind::kIntersection:
      return t1 | t2;
  }
  return t1;
}

IntervalSet QuerySpec::DependencyInterval() const {
  if (kind == QueryKind::kEvolution) return t1 | t2;
  if (kind == QueryKind::kExplore) return t1;  // bound to the full domain
  if (!UsesT2(op)) return t1;
  return t1 | t2;
}

namespace {

void HashAttrs(std::uint64_t* h, const std::vector<AttrRef>& attrs) {
  HashU64(h, attrs.size());
  for (const AttrRef& ref : attrs) {
    HashByte(h, static_cast<std::uint8_t>(ref.kind));
    HashU64(h, ref.index);
  }
}

void HashOptionalTuple(std::uint64_t* h, const std::optional<AttrTuple>& tuple) {
  if (!tuple.has_value()) {
    HashByte(h, 0);
    return;
  }
  HashByte(h, 1);
  HashU64(h, tuple->size());
  for (std::size_t i = 0; i < tuple->size(); ++i) HashU64(h, (*tuple)[i]);
}

}  // namespace

std::uint64_t QuerySpec::Fingerprint() const {
  if (kind == QueryKind::kEvolution) {
    std::uint64_t h = kFnvOffset;
    HashByte(&h, 0xe1u);  // kind tag: evolution (cannot collide with kAggregate,
                          // whose first hashed byte is a TemporalOperatorKind < 4)
    HashAttrs(&h, attrs);
    HashInterval(&h, t1);
    HashInterval(&h, t2);
    return h;
  }
  if (kind == QueryKind::kExplore) {
    std::uint64_t h = kFnvOffset;
    HashByte(&h, 0xe2u);  // kind tag: explore
    HashByte(&h, static_cast<std::uint8_t>(explore.event));
    HashByte(&h, static_cast<std::uint8_t>(explore.semantics));
    HashByte(&h, static_cast<std::uint8_t>(explore.reference));
    HashU64(&h, static_cast<std::uint64_t>(explore.k));
    HashByte(&h, static_cast<std::uint8_t>(explore.selector.kind));
    HashByte(&h, static_cast<std::uint8_t>(explore.selector.semantics));
    HashAttrs(&h, explore.selector.attrs);
    HashOptionalTuple(&h, explore.selector.node_tuple);
    HashOptionalTuple(&h, explore.selector.src_tuple);
    HashOptionalTuple(&h, explore.selector.dst_tuple);
    HashInterval(&h, t1);
    return h;
  }
  std::uint64_t h = kFnvOffset;
  HashByte(&h, static_cast<std::uint8_t>(op));
  HashByte(&h, static_cast<std::uint8_t>(semantics));
  HashByte(&h, symmetrize ? 1 : 0);
  HashAttrs(&h, attrs);  // same byte sequence as the historical inline loop
  HashInterval(&h, t1);
  if (UsesT2(op)) {
    HashInterval(&h, t2);
  } else {
    HashByte(&h, 0xffu);  // domain separator: "no t2"
  }
  return h;
}

namespace {

bool SameSelector(const EntitySelector& a, const EntitySelector& b) {
  return a.kind == b.kind && a.semantics == b.semantics && a.attrs == b.attrs &&
         a.node_tuple == b.node_tuple && a.src_tuple == b.src_tuple &&
         a.dst_tuple == b.dst_tuple;
}

}  // namespace

bool QuerySpec::EquivalentTo(const QuerySpec& other) const {
  if (kind != other.kind) return false;
  if (kind == QueryKind::kEvolution) {
    return attrs == other.attrs && filter == other.filter &&
           t1.SameMembers(other.t1) && t2.SameMembers(other.t2);
  }
  if (kind == QueryKind::kExplore) {
    return explore.event == other.explore.event &&
           explore.semantics == other.explore.semantics &&
           explore.reference == other.explore.reference &&
           explore.k == other.explore.k &&
           SameSelector(explore.selector, other.explore.selector) &&
           t1.SameMembers(other.t1);
  }
  // Intervals compare by membership, not domain size, so a spec bound before
  // a time point was appended still matches its re-bound twin afterwards.
  return op == other.op && semantics == other.semantics &&
         symmetrize == other.symmetrize && filter == other.filter &&
         attrs == other.attrs && t1.SameMembers(other.t1) &&
         (!UsesT2(op) || t2.SameMembers(other.t2));
}

namespace {

void AppendAttrs(std::string* out, const TemporalGraph& graph,
                 const std::vector<AttrRef>& attrs) {
  *out += "[";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i != 0) *out += ",";
    *out += graph.attribute_name(attrs[i]);
  }
  *out += "]";
}

}  // namespace

std::string QuerySpec::ToString(const TemporalGraph& graph) const {
  if (kind == QueryKind::kEvolution) {
    std::string out = "evolution old=";
    out += t1.ToString();
    out += " new=";
    out += t2.ToString();
    out += " attrs=";
    AppendAttrs(&out, graph, attrs);
    if (filter != nullptr) out += " filter=yes";
    return out;
  }
  if (kind == QueryKind::kExplore) {
    std::string out = "explore event=";
    out += EventTypeName(explore.event);
    out += explore.semantics == ExtensionSemantics::kUnion ? " semantics=union"
                                                           : " semantics=intersection";
    out += explore.reference == ReferenceEnd::kOld ? " reference=old" : " reference=new";
    out += " k=";
    out += std::to_string(explore.k);
    out += explore.selector.kind == EntitySelector::Kind::kNodes ? " select=nodes"
                                                                 : " select=edges";
    out += " attrs=";
    AppendAttrs(&out, graph, explore.selector.attrs);
    return out;
  }
  std::string out = TemporalOperatorName(op);
  out += " t1=";
  out += t1.ToString();
  if (UsesT2(op)) {
    out += " t2=";
    out += t2.ToString();
  }
  out += " attrs=";
  AppendAttrs(&out, graph, attrs);
  out += " semantics=";
  out += semantics == AggregationSemantics::kDistinct ? "DIST" : "ALL";
  if (filter != nullptr) out += " filter=yes";
  if (symmetrize) out += " symmetrize=yes";
  return out;
}

GraphView BuildOperatorView(const TemporalGraph& graph, const QuerySpec& spec) {
  GT_CHECK(spec.kind == QueryKind::kAggregate)
      << "operator views exist only for aggregate specs";
  switch (spec.op) {
    case TemporalOperatorKind::kProject:
      return Project(graph, spec.t1);
    case TemporalOperatorKind::kUnion:
      return UnionOp(graph, spec.t1, spec.t2);
    case TemporalOperatorKind::kIntersection:
      return IntersectionOp(graph, spec.t1, spec.t2);
    case TemporalOperatorKind::kDifference:
      return DifferenceOp(graph, spec.t1, spec.t2);
  }
  GT_CHECK(false) << "unreachable operator kind";
  GraphView unreachable;
  return unreachable;
}

GraphView BuildOperatorView(const TemporalGraph& graph, const QuerySpec& spec,
                            PresenceFoldProvider& folds) {
  GT_CHECK(spec.kind == QueryKind::kAggregate)
      << "operator views exist only for aggregate specs";
  switch (spec.op) {
    case TemporalOperatorKind::kProject:
      return Project(graph, spec.t1, folds);
    case TemporalOperatorKind::kUnion:
      return UnionOp(graph, spec.t1, spec.t2, folds);
    case TemporalOperatorKind::kIntersection:
      return IntersectionOp(graph, spec.t1, spec.t2, folds);
    case TemporalOperatorKind::kDifference:
      return DifferenceOp(graph, spec.t1, spec.t2, folds);
  }
  GT_CHECK(false) << "unreachable operator kind";
  GraphView unreachable;
  return unreachable;
}

}  // namespace graphtempo::engine
