#include "cdfg/ordering.h"

#include <algorithm>

#include "obs/obs.h"

namespace locwm::cdfg {

NodeOrdering computeOrdering(const StructuralAnalysis& analysis,
                             const std::vector<NodeId>& nodes,
                             std::uint32_t maxDepth) {
  // The base colour implements the paper's first criteria directly:
  // C1 (level) refined by the node's own functionality (the D0 signature).
  // The iterative colour refinement below then subsumes the C2/C3
  // neighbourhood deepening — each round folds the ranks of all fanin
  // nodes one step further away — and additionally folds in fanout
  // structure, which fanin-only criteria cannot see (two taps feeding the
  // same adder are separated by *who consumes them*, not by their inputs).
  LOCWM_OBS_SPAN("cdfg.ordering");
  const CsrView& csr = analysis.csr();
  const std::size_t n = nodes.size();

  // The induced neighbourhoods, once: in-set predecessor and successor
  // positions of every node, flattened.  Parallel edges stay repeated.
  constexpr std::uint32_t kOutside = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index_of(csr.nodeCount(), kOutside);
  for (std::size_t i = 0; i < n; ++i) {
    index_of[nodes[i].value()] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> nbr_off(2 * n + 1, 0);
  std::vector<std::uint32_t> nbr;
  nbr.reserve(2 * csr.edgeCount());
  for (std::size_t i = 0; i < n; ++i) {
    for (const bool succ : {false, true}) {
      for (const NodeId w :
           succ ? csr.successors(nodes[i], EdgeSel::kDataControl)
                : csr.predecessors(nodes[i], EdgeSel::kDataControl)) {
        if (index_of[w.value()] != kOutside) {
          nbr.push_back(index_of[w.value()]);
        }
      }
      nbr_off[2 * i + (succ ? 2 : 1)] = static_cast<std::uint32_t>(nbr.size());
    }
  }

  // ranks[i] = current colour of nodes[i], dense from 0.  `members` lists
  // the positions grouped by colour in ascending order; class c occupies
  // members[start[c] .. start[c + 1]).  The base colour orders by (level,
  // functionality): two stable counting sorts, by kind, then by level.
  std::vector<std::uint32_t> ranks(n, 0);
  std::vector<std::uint32_t> members(n);
  std::vector<std::uint32_t> start;
  {
    std::vector<std::uint32_t> level(n);
    std::vector<std::uint8_t> fid(n);
    std::uint32_t max_level = 0;
    for (std::size_t i = 0; i < n; ++i) {
      level[i] = analysis.level(nodes[i]);
      fid[i] = functionalityId(csr.kind(nodes[i]));
      max_level = std::max(max_level, level[i]);
    }
    std::vector<std::uint32_t> by_kind(n);
    const auto countingSort = [n](const std::vector<std::uint32_t>& in,
                                  std::vector<std::uint32_t>& out,
                                  std::size_t range, const auto& key) {
      std::vector<std::uint32_t> pos(range + 1, 0);
      for (const std::uint32_t i : in) {
        ++pos[key(i) + 1];
      }
      for (std::size_t b = 1; b <= range; ++b) {
        pos[b] += pos[b - 1];
      }
      for (std::size_t k = 0; k < n; ++k) {
        out[pos[key(in[k])]++] = in[k];
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      members[i] = static_cast<std::uint32_t>(i);
    }
    countingSort(members, by_kind, kOpKindCount,
                 [&](std::uint32_t i) { return std::size_t{fid[i]}; });
    countingSort(by_kind, members, std::size_t{max_level} + 1,
                 [&](std::uint32_t i) { return std::size_t{level[i]}; });
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t i = members[k];
      if (k == 0 || level[i] != level[members[k - 1]] ||
          fid[i] != fid[members[k - 1]]) {
        start.push_back(static_cast<std::uint32_t>(k));
      }
      ranks[i] = static_cast<std::uint32_t>(start.size() - 1);
    }
    start.push_back(static_cast<std::uint32_t>(n));
  }

  // Refinement rounds.  A node's key is (own rank, sorted predecessor
  // ranks, sorted successor ranks); the dense rank of a key among all keys
  // is the number of distinct keys of lower own rank plus its position
  // among the distinct keys of its own class.  So only classes with two or
  // more members need keys, sorted within the class: each class keeps its
  // place and splits in key order.  Node i's key lives at arena[nbr_off[2i]
  // .. nbr_off[2i + 2]), aligned with its neighbour lists.
  struct Key {
    const std::uint32_t* ranks;  // predecessor ranks, then successor ranks
    std::uint32_t preds;
    std::uint32_t succs;
    std::uint32_t member;
  };
  // Lexicographic, a shorter prefix first: std::vector's operator<.
  const auto keyOrder = [](const Key& a, const Key& b) {
    const std::uint32_t* a_succs = a.ranks + a.preds;
    const std::uint32_t* b_succs = b.ranks + b.preds;
    const auto c = std::lexicographical_compare_three_way(a.ranks, a_succs,
                                                          b.ranks, b_succs);
    return c != 0 ? c
                  : std::lexicographical_compare_three_way(
                        a_succs, a_succs + a.succs, b_succs, b_succs + b.succs);
  };
  std::vector<std::uint32_t> arena(nbr.size());
  std::vector<Key> keys;
  std::vector<std::uint32_t> next_ranks(n);
  std::vector<std::uint32_t> next_start;

  std::uint32_t depth = 0;
  std::size_t classes = start.size() - 1;
  while (classes < n && depth < maxDepth) {
    ++depth;
    next_start.clear();
    for (std::size_t c = 0; c < classes; ++c) {
      const std::uint32_t lo = start[c];
      const std::uint32_t hi = start[c + 1];
      next_start.push_back(lo);
      if (hi - lo < 2) {
        next_ranks[members[lo]] =
            static_cast<std::uint32_t>(next_start.size() - 1);
      } else {
        keys.clear();
        for (std::uint32_t k = lo; k < hi; ++k) {
          const std::size_t i = members[k];
          for (std::size_t j = 2 * i; j < 2 * i + 2; ++j) {
            const std::uint32_t from = nbr_off[j];
            const std::uint32_t to = nbr_off[j + 1];
            for (std::uint32_t x = from; x < to; ++x) {
              arena[x] = ranks[nbr[x]];
            }
            std::sort(arena.data() + from, arena.data() + to);
          }
          keys.push_back({arena.data() + nbr_off[2 * i],
                          nbr_off[2 * i + 1] - nbr_off[2 * i],
                          nbr_off[2 * i + 2] - nbr_off[2 * i + 1], members[k]});
        }
        std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
          return keyOrder(a, b) < 0;
        });
        for (std::uint32_t k = lo; k < hi; ++k) {
          members[k] = keys[k - lo].member;
          if (k > lo && keyOrder(keys[k - lo - 1], keys[k - lo]) != 0) {
            next_start.push_back(k);
          }
          next_ranks[members[k]] =
              static_cast<std::uint32_t>(next_start.size() - 1);
        }
      }
    }
    next_start.push_back(static_cast<std::uint32_t>(n));
    ranks.swap(next_ranks);
    start.swap(next_start);
    const std::size_t now = start.size() - 1;
    if (now == classes) {
      break;  // refinement converged; remaining ties are automorphic
    }
    classes = now;
  }

  // Order nodes by final rank; ties (automorphic nodes) fall back to node
  // id, which keeps the output deterministic but NOT canonical — callers
  // must consult `ranks`/`unique` before relying on tied positions.
  NodeOrdering out;
  out.ordered.reserve(n);
  out.ranks.reserve(n);
  for (std::size_t c = 0; c < classes; ++c) {
    const auto lo = members.begin() + start[c];
    const auto hi = members.begin() + start[c + 1];
    std::sort(lo, hi, [&](std::uint32_t a, std::uint32_t b) {
      return nodes[a] < nodes[b];
    });
    for (auto it = lo; it != hi; ++it) {
      out.ordered.push_back(nodes[*it]);
      out.ranks.push_back(static_cast<std::uint32_t>(c));
    }
  }
  out.unique = classes == n;
  out.max_depth_used = depth;
  LOCWM_OBS_COUNT("cdfg.ordering.refine_rounds", depth);
  LOCWM_OBS_COUNT("cdfg.ordering.runs", 1);
  return out;
}

NodeOrdering computeOrdering(const StructuralAnalysis& analysis,
                             std::uint32_t maxDepth) {
  std::vector<NodeId> all(analysis.csr().nodeCount());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = NodeId(static_cast<std::uint32_t>(i));
  }
  return computeOrdering(analysis, all, maxDepth);
}

}  // namespace locwm::cdfg
