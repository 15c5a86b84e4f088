// Exact schedule counting, and exhaustive enumeration as its oracle.
//
// The paper's proof-of-authorship metric is a ratio of schedule counts:
// Pc ≈ Π ΨW(e)/ΨN(e), where ΨW counts the schedules satisfying the added
// temporal edge and ΨN counts all schedules (§IV-A, Fig. 3).  The paper
// computed them "using a trivial exhaustive enumeration technique … only
// for small examples".  countSchedules instead counts by variable
// elimination: one variable per real operation over its start window, one
// 0/1 factor per precedence, variables summed out in a deterministic
// min-degree order.  That costs O(n·D^(w+1)) table cells for n operations,
// window length D and elimination width w; carved localities are
// near-trees, so w stays small and the count takes milliseconds.  A step
// whose table would pass a memory bound conditions on one of its
// variables instead, so a count's memory stays small whatever its width.
// enumerateSchedules keeps the backtracking enumerator for callers that
// need the schedules themselves, and as the counter's test oracle.
//
// A "schedule" here assigns a start step in [0, deadline) to every real
// operation such that all data/control (and optionally temporal) precedence
// gaps hold; resources are unconstrained, matching the paper's counting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "cdfg/graph.h"
#include "sched/latency.h"
#include "sched/schedule.h"

namespace locwm::sched {

/// Extra precedence constraints passed to the counter without mutating the
/// graph: src must start strictly before dst (a temporal edge).
using ExtraEdge = std::pair<cdfg::NodeId, cdfg::NodeId>;

/// Options of the enumerator.
struct EnumerationOptions {
  LatencyModel latency = LatencyModel::unit();
  /// Deadline in steps; nullopt = critical path.
  std::optional<std::uint32_t> deadline;
  /// Honour temporal edges already present in the graph.
  bool honor_temporal = true;
  /// Additional before-constraints applied on top of the graph.
  std::vector<ExtraEdge> extra_edges;
  /// Explicit start-window overrides: node must start within [lo, hi].
  /// Used to enumerate a subtree under the *global* frames of the design
  /// it was carved from (the paper's Fig. 3 counting).
  struct Window {
    cdfg::NodeId node;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };
  std::vector<Window> windows;
  /// Work bound.  countSchedules plans its eliminations first and
  /// evaluates no table when the plan's cells would pass it;
  /// enumerateSchedules stops after this many partial assignments.
  std::uint64_t max_steps = 200'000'000;
  /// Memory bound of countSchedules: no table it keeps holds more cells
  /// (16 bytes each).  A step whose table would is split by conditioning
  /// on one variable of its scope; the count does not depend on it.
  std::uint64_t max_table_cells = 1U << 16;
};

/// Result of a counting run.
struct CountResult {
  std::uint64_t count = 0;     ///< number of feasible schedules
  /// False when the work bound was reached or the count does not fit in
  /// 64 bits; `count` is then 0, not a bound.
  bool exact = true;
  std::uint64_t steps = 0;     ///< planned table cells of the steps run
};

/// Counts feasible schedules exactly by variable elimination.  Returns
/// exact=false when the elimination plan needs more than max_steps cells
/// in total, or when the count overflows.  Throws
/// ScheduleError for a malformed window, an extra edge on a pseudo-op or
/// a dependence cycle.
[[nodiscard]] CountResult countSchedules(const cdfg::Cdfg& g,
                                         const EnumerationOptions& options = {});

/// Enumerates feasible schedules, invoking `visit` for each.  `visit` may
/// return false to stop early.  Pseudo-ops are pinned (inputs at 0,
/// outputs after their producers).
void enumerateSchedules(const cdfg::Cdfg& g, const EnumerationOptions& options,
                        const std::function<bool(const Schedule&)>& visit);

/// The paper's Ψ pair for one candidate temporal edge e = (src → dst):
/// ΨN = number of schedules of `g` (without e), ΨW = those in which src
/// starts strictly before dst.  Fig. 3's example: ΨN = 77, ΨW = 10.
struct PsiPair {
  CountResult with_edge;     ///< ΨW
  CountResult without_edge;  ///< ΨN
};

[[nodiscard]] PsiPair countPsi(const cdfg::Cdfg& g, cdfg::NodeId src,
                               cdfg::NodeId dst,
                               const EnumerationOptions& options = {});

}  // namespace locwm::sched
