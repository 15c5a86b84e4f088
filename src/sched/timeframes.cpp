#include "sched/timeframes.h"

#include <algorithm>
#include <span>
#include <string>

#include "cdfg/error.h"

namespace locwm::sched {

using cdfg::EdgeId;
using cdfg::NodeId;

namespace {

/// The gap an edge imposes on its endpoints' start steps, or nullopt when
/// the frames ignore the edge (a temporal edge while includeTemporal is
/// off).
std::optional<std::uint32_t> consideredGap(const cdfg::Cdfg& g,
                                           const LatencyModel& lat,
                                           const cdfg::Edge& ed,
                                           bool includeTemporal) {
  if (ed.kind == cdfg::EdgeKind::kTemporal && !includeTemporal) {
    return std::nullopt;
  }
  return lat.edgeGap(g.node(ed.src).kind, ed.kind);
}

}  // namespace

TimeFrames::TimeFrames(const cdfg::Cdfg& g, const LatencyModel& lat,
                       std::optional<std::uint32_t> deadline,
                       bool includeTemporal)
    : TimeFrames(cdfg::CsrView(g), lat, deadline, includeTemporal) {}

TimeFrames::TimeFrames(const cdfg::CsrView& v, const LatencyModel& lat,
                       std::optional<std::uint32_t> deadline,
                       bool includeTemporal)
    : include_temporal_(includeTemporal) {
  const std::size_t n = v.nodeCount();
  asap_.assign(n, 0);
  alap_.assign(n, 0);
  const cdfg::EdgeSel sel =
      includeTemporal ? cdfg::EdgeSel::kAll : cdfg::EdgeSel::kDataControl;
  // Data and control edges both hold their head back by the tail's latency
  // (LatencyModel::edgeGap), so each node walks one kDataControl span with
  // that gap and, when temporal edges count, one kTemporal span.
  const auto temporalGap = [&](NodeId u) {
    return lat.edgeGap(v.kind(u), cdfg::EdgeKind::kTemporal);
  };

  // Forward pass fused with Kahn's algorithm: a node is queued only after
  // every considered predecessor has relaxed into it, so its ASAP start is
  // final when it is dequeued and is pushed on to its successors at once.
  std::vector<std::uint32_t> pending(n);
  std::vector<NodeId> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId u(static_cast<std::uint32_t>(i));
    pending[i] = static_cast<std::uint32_t>(v.inDegree(u, sel));
    if (pending[i] == 0) {
      order.push_back(u);
    }
  }
  const auto relax = [&](std::span<const NodeId> succs, std::uint32_t start) {
    for (const NodeId d : succs) {
      asap_[d.value()] = std::max(asap_[d.value()], start);
      if (--pending[d.value()] == 0) {
        order.push_back(d);
      }
    }
  };
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId u = order[head];
    const std::uint32_t start = asap_[u.value()];
    const std::uint32_t latency = lat.latency(v.kind(u));
    // Critical path in steps: the earliest finish over all nodes.
    critical_ = std::max(critical_, start + latency);
    relax(v.successors(u, cdfg::EdgeSel::kDataControl), start + latency);
    if (includeTemporal) {
      relax(v.successors(u, cdfg::EdgeSel::kTemporal), start + temporalGap(u));
    }
  }
  detail::check<GraphError>(order.size() == n,
                            "CDFG contains a dependence cycle");

  deadline_ = deadline.value_or(critical_);
  if (deadline_ < critical_) {
    throw ScheduleError("TimeFrames: deadline " + std::to_string(deadline_) +
                        " below critical path " + std::to_string(critical_));
  }

  // Backward pass: ALAP start times.  A node with no (considered)
  // successors may start as late as deadline - latency.
  const auto bound = [&](std::span<const NodeId> succs, std::uint32_t gap,
                         std::uint32_t latest) {
    for (const NodeId d : succs) {
      const std::uint32_t succ_alap = alap_[d.value()];
      latest = std::min(latest, succ_alap >= gap ? succ_alap - gap : 0u);
    }
    return latest;
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId u = *it;
    const std::uint32_t latency = lat.latency(v.kind(u));
    std::uint32_t latest = bound(v.successors(u, cdfg::EdgeSel::kDataControl),
                                 latency, deadline_ - latency);
    if (includeTemporal) {
      latest = bound(v.successors(u, cdfg::EdgeSel::kTemporal), temporalGap(u),
                     latest);
    }
    alap_[u.value()] = latest;
  }
}

void TimeFrames::addEdge(const cdfg::Cdfg& g, const LatencyModel& lat,
                         EdgeId e) {
  const cdfg::Edge& added = g.edge(e);
  const std::optional<std::uint32_t> added_gap =
      consideredGap(g, lat, added, include_temporal_);
  if (!added_gap) {
    return;
  }
  // The frames are longest-path bounds, and an added edge only adds a
  // constraint, so the old frames bound the new ones: ASAP can only rise
  // and ALAP only fall.  Relaxing in FIFO order from the edge reaches the
  // values a rebuild computes while visiting only the nodes that move.
  std::vector<NodeId> queue;
  std::vector<bool> queued(g.nodeCount(), false);
  const auto enqueue = [&](NodeId v) {
    if (!queued[v.value()]) {
      queued[v.value()] = true;
      queue.push_back(v);
    }
  };

  // Forward into a copy, so a deadline violation leaves *this unchanged.
  // Checking each raised node bounds the walk even if `g` were cyclic.
  std::vector<std::uint32_t> asap = asap_;
  std::uint32_t critical = critical_;
  const auto raise = [&](NodeId v, std::uint32_t start) {
    if (start <= asap[v.value()]) {
      return;
    }
    asap[v.value()] = start;
    const std::uint32_t finish = start + lat.latency(g.node(v).kind);
    if (finish > deadline_) {
      throw ScheduleError("TimeFrames: edge " +
                          std::to_string(added.src.value()) + " -> " +
                          std::to_string(added.dst.value()) +
                          " pushes the critical path past deadline " +
                          std::to_string(deadline_));
    }
    critical = std::max(critical, finish);
    enqueue(v);
  };
  raise(added.dst, asap[added.src.value()] + *added_gap);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    queued[v.value()] = false;
    for (const EdgeId out : g.outEdges(v)) {
      const cdfg::Edge& ed = g.edge(out);
      if (const auto gap = consideredGap(g, lat, ed, include_temporal_)) {
        raise(ed.dst, asap[v.value()] + *gap);
      }
    }
  }
  asap_ = std::move(asap);
  critical_ = critical;

  // Backward: ALAP never fails once the deadline holds.
  queue.clear();
  const auto lower = [&](NodeId v, std::uint32_t succ_alap,
                         std::uint32_t gap) {
    const std::uint32_t latest = succ_alap >= gap ? succ_alap - gap : 0u;
    if (latest < alap_[v.value()]) {
      alap_[v.value()] = latest;
      enqueue(v);
    }
  };
  lower(added.src, alap_[added.dst.value()], *added_gap);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    queued[v.value()] = false;
    for (const EdgeId in : g.inEdges(v)) {
      const cdfg::Edge& ed = g.edge(in);
      if (const auto gap = consideredGap(g, lat, ed, include_temporal_)) {
        lower(ed.src, alap_[v.value()], *gap);
      }
    }
  }
}

std::uint32_t TimeFrames::asap(NodeId n) const {
  detail::check<ScheduleError>(n.isValid() && n.value() < asap_.size(),
                               "asap(): node id out of range");
  return asap_[n.value()];
}

std::uint32_t TimeFrames::alap(NodeId n) const {
  detail::check<ScheduleError>(n.isValid() && n.value() < alap_.size(),
                               "alap(): node id out of range");
  return alap_[n.value()];
}

std::uint32_t TimeFrames::mobility(NodeId n) const {
  return alap(n) - asap(n);
}

bool TimeFrames::lifetimesOverlap(NodeId a, NodeId b) const {
  return asap(a) <= alap(b) && asap(b) <= alap(a);
}

}  // namespace locwm::sched
