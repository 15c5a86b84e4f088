#include "core/pc.h"

#include <algorithm>
#include <cmath>

#include "cdfg/error.h"
#include "rt/rt.h"

namespace locwm::wm {

double PcEstimate::pc() const { return std::pow(10.0, log10_pc); }

PcEstimate exactSchedulingPc(const WatermarkCertificate& certificate,
                             std::uint32_t deadline_slack,
                             std::uint64_t max_steps) {
  const cdfg::Cdfg& shape = certificate.shape;

  sched::EnumerationOptions base;
  base.max_steps = max_steps;
  // Grant the locality some slack beyond its own critical path, standing in
  // for the freedom the surrounding design gives these operations.
  const sched::TimeFrames tight(shape, base.latency);
  base.deadline = tight.criticalPathSteps() + deadline_slack;

  const sched::CountResult unconstrained = sched::countSchedules(shape, base);
  detail::check(unconstrained.exact,
                "exactSchedulingPc: count not exact (ΨN)");
  detail::check(unconstrained.count > 0,
                "exactSchedulingPc: locality has no feasible schedule");

  sched::EnumerationOptions constrained = base;
  for (const RankConstraint& c : certificate.constraints) {
    constrained.extra_edges.push_back(
        {cdfg::NodeId(c.before_rank), cdfg::NodeId(c.after_rank)});
  }
  const sched::CountResult with = sched::countSchedules(shape, constrained);
  detail::check(with.exact,
                "exactSchedulingPc: count not exact (ΨW)");

  PcEstimate est;
  est.exact = true;
  est.schedules_unconstrained = unconstrained.count;
  est.schedules_constrained = with.count;
  est.log10_pc =
      with.count == 0
          ? -300.0  // no coincidence possible; report a floor
          : std::log10(static_cast<double>(with.count)) -
                std::log10(static_cast<double>(unconstrained.count));
  return est;
}

double orderProbability(std::uint32_t a_lo, std::uint32_t a_hi,
                        std::uint32_t b_lo, std::uint32_t b_hi) {
  detail::check(a_lo <= a_hi && b_lo <= b_hi,
                "orderProbability: malformed windows");
  const double wa = a_hi - a_lo + 1;
  const double wb = b_hi - b_lo + 1;
  // Count pairs (ta, tb) with ta < tb.
  double favourable = 0;
  for (std::uint32_t ta = a_lo; ta <= a_hi; ++ta) {
    if (b_hi > ta) {
      const std::uint32_t lo = std::max(b_lo, ta + 1);
      if (lo <= b_hi) {
        favourable += static_cast<double>(b_hi - lo + 1);
      }
    }
  }
  return favourable / (wa * wb);
}

PcEstimate approxSchedulingPc(const cdfg::Cdfg& g,
                              const std::vector<sched::ExtraEdge>& edges,
                              const sched::LatencyModel& lat,
                              std::optional<std::uint32_t> deadline) {
  // Frames of the design an independent tool would face: the original
  // specification, i.e. temporal edges ignored.
  const sched::TimeFrames frames(g, lat, deadline,
                                 /*includeTemporal=*/false);
  PcEstimate est;
  est.exact = false;
  // Fixed-order parallel reduce: per-chunk partials are combined in chunk
  // index order, so the log-sum rounds identically for any thread count.
  est.log10_pc = rt::parallel_reduce(
      0, edges.size(), 0.0,
      [&](std::size_t i) {
        const auto& [before, after] = edges[i];
        const double p =
            orderProbability(frames.asap(before), frames.alap(before),
                             frames.asap(after), frames.alap(after));
        // A zero-probability edge cannot occur by coincidence at all;
        // clamp to a floor so one edge doesn't collapse the log-sum to
        // -inf.
        return std::log10(std::max(p, 1e-12));
      },
      [](double acc, double term) { return acc + term; });
  return est;
}

AggregatePc aggregateSchedulingPc(
    const std::vector<WatermarkCertificate>& certificates,
    std::uint32_t deadline_slack, std::uint64_t max_steps) {
  AggregatePc agg;
  agg.per_certificate.resize(certificates.size());
  // Each certificate's count walks only its own shape, so they run in
  // parallel; a count that reaches its cell bound skips that certificate
  // rather than poisoning the aggregate.
  rt::parallel_for(0, certificates.size(), /*grain=*/1, [&](std::size_t i) {
    try {
      agg.per_certificate[i] =
          exactSchedulingPc(certificates[i], deadline_slack, max_steps);
    } catch (const Error&) {
      agg.per_certificate[i] = std::nullopt;
    }
  });
  agg.combined.exact = true;
  for (const std::optional<PcEstimate>& est : agg.per_certificate) {
    if (est) {
      agg.combined.log10_pc += est->log10_pc;
    } else {
      ++agg.failed;
    }
  }
  return agg;
}

double detectionConfidenceLog10(const WatermarkCertificate& certificate,
                                std::size_t satisfied,
                                std::uint32_t deadline_slack) {
  const std::size_t k = certificate.constraints.size();
  detail::check(satisfied <= k,
                "detectionConfidenceLog10: satisfied exceeds constraints");
  if (k == 0) {
    return 0.0;
  }
  // Per-edge chance probabilities from the shape's window model.
  const sched::TimeFrames tight(certificate.shape,
                                sched::LatencyModel::unit());
  const sched::TimeFrames frames(certificate.shape,
                                 sched::LatencyModel::unit(),
                                 tight.criticalPathSteps() + deadline_slack);
  std::vector<double> p(k, 0.0);
  rt::parallel_for(0, k, rt::kDefaultGrain, [&](std::size_t i) {
    const RankConstraint& c = certificate.constraints[i];
    const cdfg::NodeId a(c.before_rank);
    const cdfg::NodeId b(c.after_rank);
    p[i] = std::clamp(orderProbability(frames.asap(a), frames.alap(a),
                                       frames.asap(b), frames.alap(b)),
                      1e-12, 1.0 - 1e-12);
  });
  // Poisson-binomial tail P[X >= satisfied] by dynamic programming.
  std::vector<double> dist(k + 1, 0.0);
  dist[0] = 1.0;
  for (const double pe : p) {
    for (std::size_t j = dist.size() - 1; j > 0; --j) {
      dist[j] = dist[j] * (1.0 - pe) + dist[j - 1] * pe;
    }
    dist[0] *= (1.0 - pe);
  }
  double tail = 0.0;
  for (std::size_t j = satisfied; j <= k; ++j) {
    tail += dist[j];
  }
  return std::log10(std::max(tail, 1e-300));
}

PcEstimate templatePc(const std::vector<std::uint64_t>& solutions) {
  PcEstimate est;
  est.exact = false;
  for (const std::uint64_t s : solutions) {
    if (s > 1) {
      est.log10_pc -= std::log10(static_cast<double>(s));
    }
  }
  return est;
}

}  // namespace locwm::wm
