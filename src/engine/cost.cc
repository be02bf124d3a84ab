#include "engine/cost.h"

namespace graphtempo::engine {

const CostModel& CostModel::Default() {
  static const CostModel model;
  return model;
}

CostEstimate EstimateCost(const CostInputs& inputs, const CostModel& model) {
  CostEstimate estimate;
  const double appearances =
      static_cast<double>(inputs.node_appearances + inputs.edge_appearances);
  estimate.direct_us = model.direct_setup_us + appearances * model.direct_per_appearance_us;

  if (!inputs.materialized_available) return estimate;

  const double points = static_cast<double>(inputs.eval_points);
  const double groups = static_cast<double>(inputs.store_groups);
  double materialized = model.materialized_setup_us +
                        points * (model.combine_per_point_us +
                                  groups * model.combine_per_group_us);
  if (inputs.needs_rollup && !inputs.layer_memoized) {
    // Always deriving's losing case: a cold subset layer is built over
    // *every* store point before the first point can be combined.
    materialized += static_cast<double>(inputs.total_points) *
                    (model.rollup_per_point_us + groups * model.rollup_per_group_us);
  }
  estimate.materialized_us = materialized;
  return estimate;
}

}  // namespace graphtempo::engine
