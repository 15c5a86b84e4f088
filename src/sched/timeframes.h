// ASAP / ALAP time frames and mobility.
//
// The watermarking protocol reasons about the "asap–alap lifetime" of every
// operation (§IV-A): eligible watermark nodes must have overlapping
// lifetimes with a partner and enough laxity.  The same frames drive the
// force-directed scheduler, bound the exact schedule counter, and feed the
// LW602 stretch rule and the incremental analyser.  This is the project's
// one ASAP/ALAP construction: a single topological pass over a
// cdfg::CsrView (the builder constructor lowers a view and delegates).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "sched/latency.h"
#include "sched/schedule.h"

namespace locwm::sched {

/// Per-node [asap, alap] start-step intervals under a deadline.
class TimeFrames {
 public:
  /// Computes frames for the graph `v` snapshots under latency model `lat`
  /// and `deadline` control steps (the schedule must fit in steps
  /// [0, deadline)).
  ///
  /// When `deadline` is nullopt the critical-path length is used, i.e. the
  /// tightest feasible deadline.  `includeTemporal` controls whether
  /// temporal (watermark) edges constrain the frames — embedding computes
  /// frames on the *original* constraints, scheduling afterwards on the
  /// augmented ones.
  ///
  /// Throws GraphError when the considered edges form a cycle, and
  /// ScheduleError when `deadline` is below the critical path.
  TimeFrames(const cdfg::CsrView& v, const LatencyModel& lat,
             std::optional<std::uint32_t> deadline, bool includeTemporal);

  /// Same frames over a builder: lowers `g` once and delegates.
  TimeFrames(const cdfg::Cdfg& g, const LatencyModel& lat,
             std::optional<std::uint32_t> deadline = std::nullopt,
             bool includeTemporal = true);

  /// Re-times the frames in place after edge `e` was added to `g`: the
  /// result equals a fresh construction over `g` with the same latency
  /// model, deadline() and includeTemporal.  Only the nodes whose frame
  /// actually moves are visited — ASAP rises forward from the edge's head,
  /// ALAP falls backward from its tail.  `g` must stay acyclic.
  ///
  /// Throws the constructor's ScheduleError, leaving the frames unchanged,
  /// when the edge pushes the critical path past deadline().
  void addEdge(const cdfg::Cdfg& g, const LatencyModel& lat, cdfg::EdgeId e);

  [[nodiscard]] std::uint32_t asap(cdfg::NodeId n) const;
  [[nodiscard]] std::uint32_t alap(cdfg::NodeId n) const;

  /// alap - asap: the scheduling freedom of the operation.
  [[nodiscard]] std::uint32_t mobility(cdfg::NodeId n) const;

  /// The deadline the frames were computed for.
  [[nodiscard]] std::uint32_t deadline() const noexcept { return deadline_; }

  /// Length of the critical path in control steps under `lat` (the minimal
  /// feasible deadline).
  [[nodiscard]] std::uint32_t criticalPathSteps() const noexcept {
    return critical_;
  }

  /// The paper's lifetime-overlap predicate: true when the [asap, alap]
  /// intervals of `a` and `b` intersect, i.e. some schedule may place them
  /// in the same step — the precondition for a meaningful temporal edge.
  [[nodiscard]] bool lifetimesOverlap(cdfg::NodeId a, cdfg::NodeId b) const;

 private:
  std::vector<std::uint32_t> asap_;
  std::vector<std::uint32_t> alap_;
  std::uint32_t deadline_ = 0;
  std::uint32_t critical_ = 0;
  bool include_temporal_ = true;
};

}  // namespace locwm::sched
