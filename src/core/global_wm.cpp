#include "core/global_wm.h"

#include <algorithm>
#include <cmath>

#include "core/locality.h"
#include "sched/timeframes.h"

namespace locwm::wm {

using cdfg::NodeId;

std::optional<SchedEmbedResult> GlobalWatermarker::embed(
    cdfg::Cdfg& g, const GlobalWmParams& params) const {
  const std::string context = "global-wm";
  const LocalityDeriver deriver(g);
  std::optional<Locality> loc = deriver.wholeDesign(4);
  if (!loc) {
    return std::nullopt;
  }

  const sched::LatencyModel& lat = params.latency;
  sched::TimeFrames frames(deriver.csr(), lat, params.deadline,
                           /*includeTemporal=*/true);

  std::vector<std::uint32_t> eligible;
  for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
    if (frames.mobility(loc->nodes[r]) >= 1) {
      eligible.push_back(r);
    }
  }
  if (eligible.size() < 2) {
    return std::nullopt;
  }
  const std::size_t k = params.k_explicit.value_or(std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             params.k_fraction * static_cast<double>(eligible.size())))));

  crypto::KeyedBitstream bits(signature_, context + "/encode");
  SchedEmbedResult result;
  encodeTemporalConstraints(g, lat, frames, loc->nodes, eligible, k, bits,
                            result);
  if (result.certificate.constraints.empty()) {
    return std::nullopt;
  }
  result.certificate.context = context;
  result.certificate.locality_params = LocalityParams{};
  result.certificate.shape = loc->shape;
  result.locality = std::move(*loc);
  return result;
}

SchedDetectResult GlobalWatermarker::detect(
    const cdfg::Cdfg& suspect, const sched::Schedule& schedule,
    const WatermarkCertificate& certificate) const {
  SchedDetectResult det;
  det.total = certificate.constraints.size();
  det.root = NodeId::invalid();

  const LocalityDeriver deriver(suspect);
  const std::optional<Locality> loc = deriver.wholeDesign(4);
  if (!loc || !shapeEquals(loc->shape, certificate.shape)) {
    return det;  // the whole design no longer matches: detection fails
  }
  det.shape_matches = 1;
  for (const RankConstraint& c : certificate.constraints) {
    const NodeId before = loc->nodes[c.before_rank];
    const NodeId after = loc->nodes[c.after_rank];
    if (schedule.isSet(before) && schedule.isSet(after) &&
        schedule.at(before) < schedule.at(after)) {
      ++det.satisfied;
    }
  }
  det.found = det.satisfied == det.total && det.total > 0;
  return det;
}

}  // namespace locwm::wm
