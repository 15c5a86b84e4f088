// An independent ASAP/ALAP oracle for the timing tests: Bellman–Ford
// longest-path relaxation over the builder's edge list, repeated until no
// value moves.  It shares nothing with sched::TimeFrames — no topological
// order, no CSR view — so agreement between the two pins the timing
// analysis rather than one implementation against itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/graph.h"
#include "sched/latency.h"

namespace locwm::testing {

struct LongestPathFrames {
  std::vector<std::uint32_t> asap;
  std::vector<std::uint32_t> alap;
  std::uint32_t critical = 0;  ///< latest finish over all nodes
  std::uint32_t deadline = 0;  ///< the deadline the ALAP pass used
};

/// Frames of the acyclic `g` under `lat`: asap is the longest gap-weighted
/// path into each node, alap the deadline minus the longest path out of it
/// (latency included).  `deadline` nullopt means the critical path; a given
/// deadline must be at least the critical path.  Temporal edges count only
/// when `includeTemporal`.
inline LongestPathFrames longestPathFrames(
    const cdfg::Cdfg& g, const sched::LatencyModel& lat,
    std::optional<std::uint32_t> deadline, bool includeTemporal) {
  std::vector<cdfg::Edge> edges;
  for (const cdfg::EdgeId e : g.allEdges()) {
    if (includeTemporal || g.edge(e).kind != cdfg::EdgeKind::kTemporal) {
      edges.push_back(g.edge(e));
    }
  }
  const auto gap = [&](const cdfg::Edge& ed) {
    return lat.edgeGap(g.node(ed.src).kind, ed.kind);
  };
  const auto latency = [&](std::size_t i) {
    const cdfg::NodeId v(static_cast<std::uint32_t>(i));
    return lat.latency(g.node(v).kind);
  };
  const std::size_t n = g.nodeCount();

  // A DAG settles within n rounds; the cap keeps a cyclic input finite.
  LongestPathFrames f;
  f.asap.assign(n, 0);
  bool changed = true;
  for (std::size_t round = 0; changed && round <= n; ++round) {
    changed = false;
    for (const cdfg::Edge& ed : edges) {
      const std::uint32_t start = f.asap[ed.src.value()] + gap(ed);
      if (start > f.asap[ed.dst.value()]) {
        f.asap[ed.dst.value()] = start;
        changed = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    f.critical = std::max(f.critical, f.asap[i] + latency(i));
  }

  f.deadline = deadline.value_or(f.critical);
  f.alap.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.alap[i] = f.deadline - latency(i);
  }
  changed = true;
  for (std::size_t round = 0; changed && round <= n; ++round) {
    changed = false;
    for (const cdfg::Edge& ed : edges) {
      const std::uint32_t succ = f.alap[ed.dst.value()];
      const std::uint32_t latest = succ >= gap(ed) ? succ - gap(ed) : 0u;
      if (latest < f.alap[ed.src.value()]) {
        f.alap[ed.src.value()] = latest;
        changed = true;
      }
    }
  }
  return f;
}

}  // namespace locwm::testing
