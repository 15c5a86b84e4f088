// Semantic rules (LW6xx).  Where LW1xx asserts structural well-formedness,
// these rules interpret the graph: transitive precedence (is a watermark
// edge redundant once *all* constraints are considered?), scheduling slack
// (does an edge stretch the dependence-only critical path?), and
// reachability/liveness (does an operation contribute to any output?).
// Precedence and liveness are instantiations of the worklist dataflow
// engine in check/dataflow.h; slack reads sched::TimeFrames.
#include <optional>
#include <string>
#include <vector>

#include "cdfg/error.h"
#include "check/dataflow.h"
#include "check/internal.h"
#include "check/rules.h"
#include "rt/rt.h"
#include "sched/latency.h"
#include "sched/timeframes.h"

namespace locwm::check {
namespace {

using cdfg::NodeId;
using cdfg::OpKind;
using detail::isSideEffecting;

/// LW601: a temporal edge implied by the *rest* of the precedence relation
/// (other temporal edges included) constrains nothing.  LW104 already
/// covers implication by data/control structure alone, so this rule fires
/// only when the implication needs at least one other temporal edge —
/// typically a buggy embedder stacking constraints onto one chain.
void checkRedundantTemporal(Report& r, const cdfg::Cdfg& g,
                            const cdfg::CsrView& view,
                            const std::string& artifact) {
  const std::vector<cdfg::EdgeId> temporal = g.temporalEdges();
  if (temporal.empty()) {
    return;
  }
  std::optional<PrecedenceClosure> closure;
  if (view.nodeCount() <= kClosureNodeLimit) {
    closure = computePrecedenceClosure(view, EdgeMask::all());
  }
  // The per-edge implication queries only read the view and the solved
  // closure; flags are computed in parallel and diagnostics added in edge
  // order afterwards, so the report is identical to the serial loop.
  std::vector<char> implied_at(temporal.size(), 0);
  rt::parallel_for(0, temporal.size(), /*grain=*/1, [&](std::size_t i) {
    const cdfg::Edge& e = g.edge(temporal[i]);
    if (hasPathSkipping(view, e.src, e.dst, temporal[i],
                        EdgeMask::dataControl())) {
      return;  // LW104's finding; one diagnostic per defect
    }
    bool implied = false;
    if (closure) {
      // On a DAG, any a->..->b path avoiding e must leave a by some other
      // edge a->m with m == b or m preceding b; the closure may use e
      // internally only on paths through b, which the DAG forbids here.
      const auto succs = view.successors(e.src, cdfg::EdgeSel::kAll);
      const auto ids = view.outEdges(e.src, cdfg::EdgeSel::kAll);
      for (std::size_t s = 0; s < succs.size(); ++s) {
        if (ids[s] == temporal[i]) {
          continue;
        }
        const cdfg::NodeId m = succs[s];
        if (m == e.dst || closure->precedes(m, e.dst)) {
          implied = true;
          break;
        }
      }
    } else {
      implied =
          hasPathSkipping(view, e.src, e.dst, temporal[i], EdgeMask::all());
    }
    implied_at[i] = implied ? 1 : 0;
  });
  for (std::size_t i = 0; i < temporal.size(); ++i) {
    if (implied_at[i] != 0) {
      r.add(detail::lw601Diag(artifact, g.edge(temporal[i])));
    }
  }
}

/// LW602: a temporal edge that cannot be satisfied within the
/// dependence-only critical path stretches the schedule — a latency cost
/// the published design pays, and exactly the kind of anomaly an adversary
/// profiles for (§IV-A picks high-laxity pairs to avoid this).
void checkStretchingTemporal(Report& r, const cdfg::Cdfg& g,
                             const cdfg::CsrView& view,
                             const std::string& artifact) {
  if (g.temporalEdges().empty()) {
    return;
  }
  const sched::TimeFrames frames(view, sched::LatencyModel::unit(),
                                 std::nullopt, /*includeTemporal=*/false);
  for (const cdfg::EdgeId te : g.temporalEdges()) {
    const cdfg::Edge& e = g.edge(te);
    if (frames.asap(e.src) + 1 > frames.alap(e.dst)) {
      r.add(detail::lw602Diag(artifact, e, frames.criticalPathSteps()));
    }
  }
}

/// LW603/LW604: liveness and reachability.  Dead: no data/control path to
/// a primary output or side-effecting operation.  Unreachable: no
/// data/control path from a primary input or constant.  Orphans (no edges
/// at all) are LW105's finding and excluded here.
void checkLiveness(Report& r, const cdfg::Cdfg& g, const cdfg::CsrView& view,
                   const std::string& artifact) {
  std::vector<NodeId> sinks;
  std::vector<NodeId> sources;
  const std::size_t n_count = view.nodeCount();
  for (std::size_t i = 0; i < n_count; ++i) {
    const NodeId n(static_cast<std::uint32_t>(i));
    const OpKind kind = view.kind(n);
    if (kind == OpKind::kOutput || isSideEffecting(kind)) {
      sinks.push_back(n);
    }
    if (kind == OpKind::kInput || kind == OpKind::kConst) {
      sources.push_back(n);
    }
  }
  const Reachability live = computeReachability(
      view, sinks, Direction::kBackward, EdgeMask::dataControl());
  const Reachability reachable = computeReachability(
      view, sources, Direction::kForward, EdgeMask::dataControl());

  for (std::size_t i = 0; i < n_count; ++i) {
    const NodeId n(static_cast<std::uint32_t>(i));
    const OpKind kind = view.kind(n);
    if (cdfg::isPseudoOp(kind) || isSideEffecting(kind)) {
      continue;
    }
    if (view.inDegree(n, cdfg::EdgeSel::kAll) == 0 &&
        view.outDegree(n, cdfg::EdgeSel::kAll) == 0) {
      continue;  // LW105's finding
    }
    if (!live.reached(n)) {
      r.add(detail::lw603Diag(artifact, g, n));
    } else if (!reachable.reached(n)) {
      r.add(detail::lw604Diag(artifact, g, n));
    }
  }
}

}  // namespace

Report checkSemantics(const cdfg::Cdfg& g, const std::string& artifact) {
  Report r;
  try {
    g.checkAcyclic();
  } catch (const GraphError&) {
    return r;  // LW103 is checkGraph's finding; fixpoints need a DAG
  }
  // One lowering serves all three rule families; the builder stays around
  // for edge endpoints and node labels in diagnostics.
  const cdfg::CsrView view(g);
  checkRedundantTemporal(r, g, view, artifact);
  checkStretchingTemporal(r, g, view, artifact);
  checkLiveness(r, g, view, artifact);
  return r;
}

}  // namespace locwm::check
