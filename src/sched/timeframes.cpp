#include "sched/timeframes.h"

#include <algorithm>

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
    : include_temporal_(includeTemporal) {
  const std::size_t n = g.nodeCount();
  asap_.assign(n, 0);
  alap_.assign(n, 0);

  const std::vector<NodeId> topo = g.topologicalOrder(includeTemporal);

  // Forward pass: ASAP start times.
  for (const NodeId v : topo) {
    std::uint32_t earliest = 0;
    for (const EdgeId e : g.inEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (const auto gap = consideredGap(g, lat, ed, includeTemporal)) {
        earliest = std::max(earliest, asap_[ed.src.value()] + *gap);
      }
    }
    asap_[v.value()] = earliest;
  }

  // Critical path in steps: the earliest finish over all nodes.
  critical_ = 0;
  for (const NodeId v : topo) {
    critical_ = std::max(critical_,
                         asap_[v.value()] + lat.latency(g.node(v).kind));
  }

  deadline_ = deadline.value_or(critical_);
  detail::check<ScheduleError>(
      deadline_ >= critical_,
      "TimeFrames: deadline " + std::to_string(deadline_) +
          " below critical path " + std::to_string(critical_));

  // Backward pass: ALAP start times.  A node with no (considered)
  // successors may start as late as deadline - latency.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    std::uint32_t latest = deadline_ - lat.latency(g.node(v).kind);
    for (const EdgeId e : g.outEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (const auto gap = consideredGap(g, lat, ed, includeTemporal)) {
        const std::uint32_t succ_alap = alap_[ed.dst.value()];
        latest = std::min(latest, succ_alap >= *gap ? succ_alap - *gap : 0u);
      }
    }
    alap_[v.value()] = latest;
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
