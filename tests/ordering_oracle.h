// An independent canonical-ordering oracle for the ordering tests: the
// straightforward colour refinement that cdfg::computeOrdering replaced.
// Every round builds one heap-allocated key per node — (own rank, sorted
// predecessor ranks, sorted successor ranks) — sorts all keys globally and
// re-ranks densely.  Levels come from the builder's own topological order,
// so the oracle shares neither the CSR view nor the class-local refinement
// with the code under test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/operation.h"
#include "cdfg/ordering.h"

namespace locwm::testing {

/// computeOrdering's contract, computed the slow way over the builder.
inline cdfg::NodeOrdering referenceOrdering(
    const cdfg::Cdfg& g, const std::vector<cdfg::NodeId>& nodes,
    std::uint32_t maxDepth = 64) {
  using cdfg::NodeId;
  // C1 levels: longest path in real operations, data/control edges only.
  std::vector<std::uint32_t> level(g.nodeCount(), 0);
  for (const NodeId v : g.topologicalOrder(/*includeTemporal=*/false)) {
    std::uint32_t best = 0;
    for (const NodeId p : g.predecessors(v, /*includeTemporal=*/false)) {
      best = std::max(best, level[p.value()]);
    }
    level[v.value()] = best + (cdfg::isPseudoOp(g.node(v).kind) ? 0u : 1u);
  }

  const std::size_t n = nodes.size();
  constexpr std::uint32_t kOutside = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index_of(g.nodeCount(), kOutside);
  for (std::size_t i = 0; i < n; ++i) {
    index_of[nodes[i].value()] = static_cast<std::uint32_t>(i);
  }

  std::vector<std::uint32_t> ranks(n, 0);
  {
    std::vector<std::pair<std::pair<std::uint32_t, std::uint8_t>,
                          std::size_t>>
        base;
    for (std::size_t i = 0; i < n; ++i) {
      base.push_back({{level[nodes[i].value()],
                       cdfg::functionalityId(g.node(nodes[i]).kind)},
                      i});
    }
    std::sort(base.begin(), base.end());
    std::uint32_t r = 0;
    for (std::size_t k = 0; k < base.size(); ++k) {
      if (k > 0 && base[k].first != base[k - 1].first) {
        ++r;
      }
      ranks[base[k].second] = r;
    }
  }
  const auto classCount = [&] {
    return ranks.empty() ? std::size_t{0}
                         : std::size_t{*std::max_element(ranks.begin(),
                                                         ranks.end())} +
                               1;
  };

  using Key = std::tuple<std::uint32_t, std::vector<std::uint32_t>,
                         std::vector<std::uint32_t>>;
  std::uint32_t depth = 0;
  std::size_t classes = classCount();
  while (classes < n && depth < maxDepth) {
    ++depth;
    std::vector<std::pair<Key, std::size_t>> keyed;
    for (std::size_t i = 0; i < n; ++i) {
      Key key;
      std::get<0>(key) = ranks[i];
      for (const NodeId p : g.predecessors(nodes[i], false)) {
        if (index_of[p.value()] != kOutside) {
          std::get<1>(key).push_back(ranks[index_of[p.value()]]);
        }
      }
      for (const NodeId s : g.successors(nodes[i], false)) {
        if (index_of[s.value()] != kOutside) {
          std::get<2>(key).push_back(ranks[index_of[s.value()]]);
        }
      }
      std::sort(std::get<1>(key).begin(), std::get<1>(key).end());
      std::sort(std::get<2>(key).begin(), std::get<2>(key).end());
      keyed.emplace_back(std::move(key), i);
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::uint32_t r = 0;
    for (std::size_t k = 0; k < keyed.size(); ++k) {
      if (k > 0 && keyed[k].first != keyed[k - 1].first) {
        ++r;
      }
      ranks[keyed[k].second] = r;
    }
    const std::size_t now = classCount();
    if (now == classes) {
      break;
    }
    classes = now;
  }

  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return ranks[a] != ranks[b] ? ranks[a] < ranks[b] : nodes[a] < nodes[b];
  });
  cdfg::NodeOrdering out;
  for (const std::size_t i : perm) {
    out.ordered.push_back(nodes[i]);
    out.ranks.push_back(ranks[i]);
  }
  out.unique = classes == n;
  out.max_depth_used = depth;
  return out;
}

}  // namespace locwm::testing
