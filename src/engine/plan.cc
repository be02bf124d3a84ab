#include "engine/plan.h"

#include <cinttypes>
#include <cstdio>

namespace graphtempo::engine {

const char* PlanRouteName(PlanRoute route) {
  switch (route) {
    case PlanRoute::kDirectKernel: return "direct";
    case PlanRoute::kMaterializedDerivation: return "materialized";
  }
  return "?";
}

std::string QueryPlan::Explain() const {
  char header[96];
  std::snprintf(header, sizeof(header), "plan fingerprint=0x%016" PRIx64, fingerprint);
  std::string out = header;
  out += "  route=";
  out += PlanRouteName(route);
  if (stale_fallback) out += "(stale-store-fallback)";
  out += "  cache=";
  out += cacheable ? "eligible" : "bypass(filter)";
  out += "\n";
  {
    // Both route estimates, so the decision is inspectable — also when
    // `force_route` overrode it.
    char line[96];
    if (cost.materialized_us >= 0.0) {
      std::snprintf(line, sizeof(line), "estimate direct=%.1fus materialized=%.1fus\n",
                    cost.direct_us, cost.materialized_us);
    } else {
      std::snprintf(line, sizeof(line), "estimate direct=%.1fus materialized=n/a\n",
                    cost.direct_us);
    }
    out += line;
  }
  // Align detail columns on the longest step kind.
  std::size_t kind_width = 0;
  for (const PlanStep& step : steps) {
    if (step.kind.size() > kind_width) kind_width = step.kind.size();
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    char num[32];
    std::snprintf(num, sizeof(num), "  %zu. ", i + 1);
    out += num;
    out += steps[i].kind;
    if (!steps[i].detail.empty()) {
      for (std::size_t pad = steps[i].kind.size(); pad < kind_width + 1; ++pad) {
        out += ' ';
      }
      out += steps[i].detail;
    }
    out += "\n";
  }
  return out;
}

}  // namespace graphtempo::engine
