#include "cdfg/analysis.h"

#include <algorithm>

namespace locwm::cdfg {

namespace {

/// Weight a node contributes to paths: pseudo-ops are free.
std::uint32_t nodeWeight(const CsrView& v, NodeId n) {
  return isPseudoOp(v.kind(n)) ? 0u : 1u;
}

}  // namespace

StructuralAnalysis::StructuralAnalysis(const Cdfg& graph)
    : owned_(std::make_unique<const CsrView>(graph)), view_(owned_.get()) {
  compute();
}

StructuralAnalysis::StructuralAnalysis(const CsrView& view) : view_(&view) {
  compute();
}

void StructuralAnalysis::compute() {
  const CsrView& view = *view_;
  const std::size_t n = view.nodeCount();
  level_.assign(n, 0);
  height_.assign(n, 0);

  // Kahn's algorithm over the data+control segments (temporal edges are
  // excluded throughout, see the class comment).  Levels and heights are
  // longest paths, so any topological order yields the same values.
  std::vector<NodeId> topo;
  topo.reserve(n);
  std::vector<std::uint32_t> indegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    indegree[i] =
        static_cast<std::uint32_t>(view.inDegree(v, EdgeSel::kDataControl));
    if (indegree[i] == 0) {
      topo.push_back(v);
    }
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    const NodeId v = topo[head];
    for (const NodeId s : view.successors(v, EdgeSel::kDataControl)) {
      if (--indegree[s.value()] == 0) {
        topo.push_back(s);
      }
    }
  }
  detail::check<GraphError>(topo.size() == n,
                            "CDFG contains a dependence cycle");

  for (const NodeId v : topo) {
    std::uint32_t best = 0;
    for (const NodeId p : view.predecessors(v, EdgeSel::kDataControl)) {
      best = std::max(best, level_[p.value()]);
    }
    level_[v.value()] = best + nodeWeight(view, v);
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    std::uint32_t best = 0;
    for (const NodeId s : view.successors(v, EdgeSel::kDataControl)) {
      best = std::max(best, height_[s.value()]);
    }
    height_[v.value()] = best + nodeWeight(view, v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    critical_path_ = std::max(critical_path_, level_[i]);
  }
}

std::uint32_t StructuralAnalysis::level(NodeId n) const {
  detail::check<GraphError>(n.isValid() && n.value() < level_.size(),
                            "level(): node id out of range");
  return level_[n.value()];
}

std::uint32_t StructuralAnalysis::height(NodeId n) const {
  detail::check<GraphError>(n.isValid() && n.value() < height_.size(),
                            "height(): node id out of range");
  return height_[n.value()];
}

std::uint32_t StructuralAnalysis::laxity(NodeId n) const {
  // level() already counts the node itself (when real); height() counts it
  // again, so subtract one node weight to avoid double counting.
  return level(n) + height(n) - nodeWeight(*view_, n);
}

std::uint32_t StructuralAnalysis::slack(NodeId n) const {
  const std::uint32_t lax = laxity(n);
  return critical_path_ >= lax ? critical_path_ - lax : 0u;
}

std::size_t StructuralAnalysis::transitiveFaninCount(NodeId n,
                                                     std::uint32_t dist) const {
  return faninTree(n, dist).size() - 1;  // exclude n itself
}

std::vector<NodeId> StructuralAnalysis::faninTree(NodeId n,
                                                  std::uint32_t dist) const {
  detail::check<GraphError>(n.isValid() && n.value() < view_->nodeCount(),
                            "faninTree(): node id out of range");
  std::vector<bool> seen(view_->nodeCount(), false);
  std::vector<NodeId> result;
  // Frontier-by-frontier BFS so distances are exact; within a frontier,
  // nodes are visited in ascending id order for determinism.
  std::vector<NodeId> frontier{n};
  seen[n.value()] = true;
  result.push_back(n);
  for (std::uint32_t d = 0; d < dist && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      for (const NodeId p : view_->predecessors(v, EdgeSel::kDataControl)) {
        if (!seen[p.value()]) {
          seen[p.value()] = true;
          next.push_back(p);
        }
      }
    }
    std::sort(next.begin(), next.end());
    result.insert(result.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return result;
}

std::vector<std::uint8_t> StructuralAnalysis::functionalitySignature(
    NodeId n, std::uint32_t dist) const {
  const std::vector<NodeId> tree = faninTree(n, dist);
  std::vector<std::uint8_t> sig;
  sig.reserve(tree.size());
  for (const NodeId v : tree) {
    if (v == n) {
      continue;
    }
    sig.push_back(functionalityId(view_->kind(v)));
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

}  // namespace locwm::cdfg
