#include "core/locality.h"

#include <algorithm>
#include <unordered_map>

#include "cdfg/error.h"
#include "cdfg/subgraph.h"
#include "obs/obs.h"
#include "rt/rt.h"

namespace locwm::wm {

using cdfg::NodeId;

bool shapeEquals(const cdfg::Cdfg& a, const cdfg::Cdfg& b) {
  if (a.nodeCount() != b.nodeCount() || a.edgeCount() != b.edgeCount()) {
    return false;
  }
  // Direct table walks: this runs once per shape-matching candidate root
  // during detection scans, so the allNodes()/allEdges() id vectors the
  // convenience API allocates are worth avoiding.
  const std::vector<cdfg::Node>& an = a.nodes();
  const std::vector<cdfg::Node>& bn = b.nodes();
  for (std::size_t i = 0; i < an.size(); ++i) {
    if (an[i].kind != bn[i].kind) {
      return false;
    }
  }
  auto edgeSet = [](const cdfg::Cdfg& g) {
    std::vector<std::tuple<std::uint32_t, std::uint32_t, cdfg::EdgeKind>> set;
    set.reserve(g.edgeCount());
    for (const cdfg::Edge& ed : g.edges()) {
      set.emplace_back(ed.src.value(), ed.dst.value(), ed.kind);
    }
    std::sort(set.begin(), set.end());
    return set;
  };
  return edgeSet(a) == edgeSet(b);
}

bool Locality::sameShape(const Locality& other) const {
  return shapeEquals(shape, other.shape);
}

namespace {

/// True for kinds the identification treats as wires, not operations:
/// pseudo-ops (the port boundary) and register-to-register copies.  Copy
/// transparency makes the cheapest structural attack — splitting edges
/// with no-op moves — a no-op against detection.
bool isTransparentKind(cdfg::OpKind kind) {
  return cdfg::isPseudoOp(kind) || kind == cdfg::OpKind::kCopy;
}

/// Copy-transparent walk shared by realPreds/realSuccs: collects real
/// operations, expands copies, stops at pseudo-ops.  `seen` membership is
/// a linear scan — the walks touch a handful of local nodes, so a small
/// vector beats the O(graph) bitmap the old builder-based helpers zeroed
/// on every call.
template <typename Expand>
std::vector<NodeId> realNeighbourWalk(const cdfg::CsrView& v, NodeId start,
                                      Expand&& neighbours) {
  std::vector<NodeId> out;
  std::vector<NodeId> seen;
  std::vector<NodeId> stack;
  {
    const auto first = neighbours(start);
    stack.assign(first.begin(), first.end());
  }
  while (!stack.empty()) {
    const NodeId p = stack.back();
    stack.pop_back();
    if (std::find(seen.begin(), seen.end(), p) != seen.end()) {
      continue;
    }
    seen.push_back(p);
    const cdfg::OpKind kind = v.kind(p);
    if (cdfg::isPseudoOp(kind)) {
      continue;
    }
    if (kind == cdfg::OpKind::kCopy) {
      for (const NodeId q : neighbours(p)) {
        stack.push_back(q);
      }
      continue;
    }
    out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Real-operation predecessors (via data/control edges), walking *through*
/// copy chains, deduplicated, ascending by id.  Pseudo-ops terminate the
/// walk (they are the traversal boundary).
std::vector<NodeId> realPreds(const cdfg::CsrView& v, NodeId n) {
  return realNeighbourWalk(v, n, [&](NodeId x) {
    return v.predecessors(x, cdfg::EdgeSel::kDataControl);
  });
}

/// Calls f(dst, kind) for every data/control edge leaving `n`, in edge
/// *insertion* order — merging the kind-grouped CSR segments by edge id
/// reproduces exactly the order the builder's outEdges() walk visits, so
/// graphs built from this traversal have identical edge numbering.
template <typename F>
void forEachDataControlOut(const cdfg::CsrView& v, NodeId n, F&& f) {
  const auto dn = v.successors(n, cdfg::EdgeSel::kData);
  const auto de = v.outEdges(n, cdfg::EdgeSel::kData);
  const auto cn = v.successors(n, cdfg::EdgeSel::kControl);
  const auto ce = v.outEdges(n, cdfg::EdgeSel::kControl);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < dn.size() || j < cn.size()) {
    if (j >= cn.size() ||
        (i < dn.size() && de[i].value() < ce[j].value())) {
      f(dn[i], cdfg::EdgeKind::kData);
      ++i;
    } else {
      f(cn[j], cdfg::EdgeKind::kControl);
      ++j;
    }
  }
}

/// Builds the *contracted* identification graph over `members` (sorted,
/// all non-transparent): direct edges keep their kind; edges that pass
/// through copy chains are contracted to data edges, preserving path
/// multiplicity (x + x through a copy stays a double edge).  All
/// identification — ordering, carving, shapes — happens on this graph, so
/// splitting edges with copies cannot perturb detection.
cdfg::Cdfg buildContracted(const cdfg::CsrView& view,
                           const std::vector<NodeId>& members,
                           cdfg::NodeMap* map_out) {
  cdfg::Cdfg c;
  cdfg::NodeMap map;
  map.reserve(members.size());
  for (const NodeId v : members) {
    map.emplace(v, c.addNode(view.kind(v)));
  }
  for (const NodeId v : members) {
    // forEachDataControlOut replays the builder's edge-insertion order,
    // so the contracted graph's edge numbering is identical to what the
    // pre-CSR implementation produced.
    forEachDataControlOut(view, v, [&](NodeId dst, cdfg::EdgeKind kind) {
      const auto direct = map.find(dst);
      if (direct != map.end()) {
        c.addEdge(map.at(v), direct->second, kind);
        return;
      }
      if (view.kind(dst) != cdfg::OpKind::kCopy) {
        return;  // boundary (pseudo-op or outside the member set)
      }
      // Expand the copy chain, preserving multiplicity (no dedup).
      std::vector<NodeId> stack{dst};
      std::size_t guard = 0;
      while (!stack.empty() && ++guard < 4096) {
        const NodeId p = stack.back();
        stack.pop_back();
        forEachDataControlOut(view, p, [&](NodeId q, cdfg::EdgeKind) {
          if (view.kind(q) == cdfg::OpKind::kCopy) {
            stack.push_back(q);
          } else if (const auto it = map.find(q); it != map.end()) {
            c.addEdge(map.at(v), it->second, cdfg::EdgeKind::kData);
          }
        });
      }
    });
  }
  if (map_out != nullptr) {
    *map_out = std::move(map);
  }
  return c;
}

/// The canonical ordering of a contracted identification context.
/// Automorphic nodes (tied ranks) cannot be identified reproducibly on a
/// re-indexed copy, so rank_of gives them kTied and the carve never
/// selects them.
struct RankedContext {
  static constexpr std::uint32_t kTied = 0xFFFFFFFFu;
  cdfg::StructuralAnalysis analysis;
  /// Context nodes by ascending canonical rank.
  std::vector<NodeId> ordered;
  /// rank_of[context node value] = canonical rank, or kTied.
  std::vector<std::uint32_t> rank_of;
};

RankedContext rankContext(const cdfg::Cdfg& context) {
  RankedContext out{cdfg::StructuralAnalysis(context), {}, {}};
  cdfg::NodeOrdering ordering = cdfg::computeOrdering(out.analysis);
  out.rank_of.assign(context.nodeCount(), RankedContext::kTied);
  for (std::size_t i = 0; i < ordering.ordered.size(); ++i) {
    const bool tied_prev =
        i > 0 && ordering.ranks[i] == ordering.ranks[i - 1];
    const bool tied_next = i + 1 < ordering.ranks.size() &&
                           ordering.ranks[i] == ordering.ranks[i + 1];
    if (!tied_prev && !tied_next) {
      out.rank_of[ordering.ordered[i].value()] = ordering.ranks[i];
    }
  }
  out.ordered = std::move(ordering.ordered);
  return out;
}

/// Real-operation successors with the same copy transparency.
std::vector<NodeId> realSuccs(const cdfg::CsrView& v, NodeId n) {
  return realNeighbourWalk(v, n, [&](NodeId x) {
    return v.successors(x, cdfg::EdgeSel::kDataControl);
  });
}

}  // namespace

std::optional<Locality> LocalityDeriver::derive(
    NodeId root, const LocalityParams& params,
    crypto::KeyedBitstream& bits) const {
  LOCWM_OBS_SPAN("core.locality.derive");
  LOCWM_OBS_COUNT("core.locality.derive_calls", 1);
  const cdfg::CsrView& view = csr_;
  if (isTransparentKind(view.kind(root))) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return std::nullopt;
  }

  auto realNeighbours = [&](NodeId v, bool undirected) {
    std::vector<NodeId> out = realPreds(view, v);
    if (undirected) {
      const std::vector<NodeId> succs = realSuccs(view, v);
      out.insert(out.end(), succs.begin(), succs.end());
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    return out;
  };
  auto ball = [&](std::uint32_t radius, bool undirected) {
    std::vector<NodeId> members;
    std::vector<bool> seen(view.nodeCount(), false);
    std::vector<NodeId> frontier{root};
    seen[root.value()] = true;
    members.push_back(root);
    for (std::uint32_t d = 0; d < radius && !frontier.empty(); ++d) {
      std::vector<NodeId> next;
      for (const NodeId v : frontier) {
        for (const NodeId p : realNeighbours(v, undirected)) {
          if (!seen[p.value()]) {
            seen[p.value()] = true;
            next.push_back(p);
          }
        }
      }
      std::sort(next.begin(), next.end());
      members.insert(members.end(), next.begin(), next.end());
      frontier = std::move(next);
    }
    std::sort(members.begin(), members.end());
    return members;
  };

  std::vector<NodeId> to_nodes;
  std::vector<NodeId> ctx_nodes;
  {
    LOCWM_OBS_SPAN("core.locality.derive.ball");
    // --- Step 1a: the fanin tree To of max-distance Δ, real ops only —
    // the set the carve may select from (the paper's To).
    to_nodes = ball(params.max_distance, /*undirected=*/false);
    if (to_nodes.size() < params.min_size) {
      LOCWM_OBS_COUNT("core.locality.rejected", 1);
      return std::nullopt;
    }
    // --- Step 1b: the *identification context*: the undirected ball of
    // the same radius.  Fanin-only context cannot tell symmetric taps
    // apart (their difference lies in who consumes them); the undirected
    // ball is still root-anchored and structural, so the detector
    // re-derives it identically.  Pseudo-ops (the design's port boundary)
    // are never crossed, keeping the context invariant under host
    // embedding.
    ctx_nodes = ball(params.max_distance, /*undirected=*/true);
  }

  // --- Step 2: canonical ordering of the context's contracted graph; the
  // root itself must be uniquely identified.
  cdfg::NodeMap to_map;  // graph -> contracted (context coordinates)
  const cdfg::Cdfg to_graph = [&] {
    LOCWM_OBS_SPAN("core.locality.derive.contract");
    return buildContracted(view, ctx_nodes, &to_map);
  }();
  const RankedContext ranked = [&] {
    LOCWM_OBS_SPAN("core.locality.derive.order");
    return rankContext(to_graph);
  }();
  const std::vector<std::uint32_t>& rank_of = ranked.rank_of;
  constexpr std::uint32_t kTied = RankedContext::kTied;
  const NodeId root_in_to = to_map.at(root);
  if (rank_of[root_in_to.value()] == kTied) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return std::nullopt;
  }

  // --- Step 3: keyed breadth-first carve of T ⊆ To. ---
  LOCWM_OBS_SPAN("core.locality.derive.carve");
  std::vector<bool> in_to(to_graph.nodeCount(), false);
  for (const NodeId v : to_nodes) {
    in_to[to_map.at(v).value()] = true;
  }
  const NodeId root_local = root_in_to;
  std::vector<bool> carved(to_graph.nodeCount(), false);
  carved[root_local.value()] = true;
  std::vector<NodeId> frontier{root_local};
  while (!frontier.empty()) {
    // Deterministic frontier order: ascending canonical rank.
    std::sort(frontier.begin(), frontier.end(), [&](NodeId a, NodeId b) {
      return rank_of[a.value()] < rank_of[b.value()];
    });
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      // The ordering's analysis already lowered the contracted graph —
      // reuse its view.
      std::vector<NodeId> preds = realPreds(ranked.analysis.csr(), v);
      // Only fanin-tree members are selectable, and automorphic
      // predecessors are invisible to the carve.
      std::erase_if(preds, [&](NodeId p) {
        return !in_to[p.value()] || rank_of[p.value()] == kTied;
      });
      std::sort(preds.begin(), preds.end(), [&](NodeId a, NodeId b) {
        return rank_of[a.value()] < rank_of[b.value()];
      });
      if (preds.empty()) {
        continue;
      }
      // At least one input is always included...
      const std::size_t keep = bits.below(preds.size());
      // ...each remaining input is excluded with a fixed probability.
      for (std::size_t i = 0; i < preds.size(); ++i) {
        bool include;
        if (i == keep) {
          include = true;
        } else {
          include = !bits.chance(params.exclude_prob_256, 256);
        }
        if (include && !carved[preds[i].value()]) {
          carved[preds[i].value()] = true;
          next.push_back(preds[i]);
        }
      }
    }
    frontier = std::move(next);
  }

  // --- Step 4: assemble the locality in canonical-rank order. ---
  std::vector<NodeId> carved_local;  // induced-graph ids, by ascending rank
  for (const NodeId v : ranked.ordered) {
    if (carved[v.value()]) {
      carved_local.push_back(v);
    }
  }
  if (carved_local.size() < params.min_size) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return std::nullopt;
  }

  // Map induced ids back to source-graph ids.
  std::unordered_map<NodeId, NodeId> inverse;  // induced -> graph
  for (const auto& [orig, local] : to_map) {
    inverse.emplace(local, orig);
  }

  Locality result;
  result.root = root;
  result.nodes.reserve(carved_local.size());
  for (const NodeId v : carved_local) {
    result.nodes.push_back(inverse.at(v));
  }
  // Shape: induced subgraph of T with node id == rank.  inducedSubgraph
  // numbers nodes by position in the input vector, so passing the nodes in
  // rank order yields exactly the rank numbering.  Temporal edges (from
  // previously embedded watermarks) are stripped: the published design
  // carries none, and the fingerprint must match it.
  result.shape =
      cdfg::inducedSubgraph(to_graph, carved_local).stripTemporalEdges();
  // Scrub labels: shape identity must not leak source names.
  for (const NodeId v : result.shape.allNodes()) {
    result.shape.setNodeName(v, {});
  }
  LOCWM_OBS_COUNT("core.locality.accepted", 1);
  LOCWM_OBS_COUNT("core.locality.nodes_carved", result.nodes.size());
  return result;
}

std::optional<Locality> LocalityDeriver::wholeDesign(
    std::size_t minSize) const {
  std::vector<NodeId> real;
  const std::size_t n = csr_.nodeCount();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    if (!isTransparentKind(csr_.kind(v))) {
      real.push_back(v);
    }
  }
  if (real.size() < minSize) {
    return std::nullopt;
  }
  cdfg::NodeMap map;
  const cdfg::Cdfg sub = buildContracted(csr_, real, &map);
  const RankedContext ranked = rankContext(sub);

  std::unordered_map<NodeId, NodeId> inverse;  // induced -> graph
  for (const auto& [orig, local] : map) {
    inverse.emplace(local, orig);
  }
  std::vector<NodeId> untied_local;
  for (const NodeId v : ranked.ordered) {
    if (ranked.rank_of[v.value()] != RankedContext::kTied) {
      untied_local.push_back(v);
    }
  }
  if (untied_local.size() < minSize) {
    return std::nullopt;
  }
  Locality result;
  result.root = NodeId::invalid();
  for (const NodeId v : untied_local) {
    result.nodes.push_back(inverse.at(v));
  }
  result.shape =
      cdfg::inducedSubgraph(sub, untied_local).stripTemporalEdges();
  for (const NodeId v : result.shape.allNodes()) {
    result.shape.setNodeName(v, {});
  }
  return result;
}

namespace {

/// True when `outer` holds at least as many nodes of every kind as `inner`.
bool kindCountsCover(const KindCounts& outer,
                     const KindCounts& inner) noexcept {
  for (std::size_t k = 0; k < outer.size(); ++k) {
    if (outer[k] < inner[k]) {
      return false;
    }
  }
  return true;
}

/// Mirror of derive()'s Step 1a ball(radius, /*undirected=*/false): a
/// breadth-first walk over copy-transparent real predecessors of a real
/// `root`.  Calls on_level(k, counts) with the kind histogram of the ball
/// of radius k, for k = 0..radius, and stops early when it returns false
/// or when the ball stops growing.  Membership is all that matters here,
/// so the per-level sorting derive() does for determinism of *order* is
/// unnecessary — the counted set is identical.  Returns the last counts
/// reported, or nullopt when on_level stopped the walk.
template <typename OnLevel>
std::optional<KindCounts> walkFaninLevels(const cdfg::CsrView& v, NodeId root,
                                          std::uint32_t radius,
                                          OnLevel&& on_level) {
  KindCounts counts{};
  counts[static_cast<std::size_t>(v.kind(root))] += 1;
  if (!on_level(0, counts)) {
    return std::nullopt;
  }
  std::vector<bool> seen(v.nodeCount(), false);
  std::vector<NodeId> frontier{root};
  seen[root.value()] = true;
  for (std::uint32_t d = 0; d < radius && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (const NodeId u : frontier) {
      for (const NodeId p : realPreds(v, u)) {
        if (!seen[p.value()]) {
          seen[p.value()] = true;
          counts[static_cast<std::size_t>(v.kind(p))] += 1;
          next.push_back(p);
        }
      }
    }
    frontier = std::move(next);
    if (!on_level(d + 1, counts)) {
      return std::nullopt;
    }
  }
  return counts;
}

/// The per-level histograms walkFaninLevels reports, in level order.
std::vector<KindCounts> faninLevels(const cdfg::CsrView& v, NodeId root,
                                    std::uint32_t radius) {
  std::vector<KindCounts> levels;
  walkFaninLevels(v, root, radius,
                  [&](std::uint32_t, const KindCounts& counts) {
                    levels.push_back(counts);
                    return true;
                  });
  return levels;
}

/// Rank of the only node of `shape` with no outgoing edge, if exactly one
/// has none.
std::optional<std::uint32_t> uniqueSink(const cdfg::Cdfg& shape) {
  std::vector<bool> has_out(shape.nodeCount(), false);
  for (const cdfg::EdgeId e : shape.allEdges()) {
    has_out[shape.edge(e).src.value()] = true;
  }
  std::optional<std::uint32_t> sink;
  for (std::uint32_t i = 0; i < has_out.size(); ++i) {
    if (!has_out[i]) {
      if (sink.has_value()) {
        return std::nullopt;
      }
      sink = i;
    }
  }
  return sink;
}

}  // namespace

std::vector<KindCounts> LocalityDeriver::faninKindCounts(
    NodeId root, std::uint32_t radius) const {
  if (isTransparentKind(csr_.kind(root))) {
    return {KindCounts{}};
  }
  return faninLevels(csr_, root, radius);
}

bool LocalityDeriver::faninCovers(
    NodeId root, const std::vector<KindCounts>& layers) const {
  if (layers.empty()) {
    return true;
  }
  // derive() rejects transparent roots outright.
  if (isTransparentKind(csr_.kind(root))) {
    return false;
  }
  const std::optional<KindCounts> cone = walkFaninLevels(
      csr_, root, static_cast<std::uint32_t>(layers.size() - 1),
      [&](std::uint32_t k, const KindCounts& counts) {
        return kindCountsCover(counts, layers[k]);
      });
  // A walk that ended early holds the whole cone; the layers grow, so the
  // last one is the only one left to check.
  return cone.has_value() && kindCountsCover(*cone, layers.back());
}

KindCounts LocalityDeriver::realKindCounts() const {
  KindCounts counts{};
  const std::size_t n = csr_.nodeCount();
  for (std::size_t i = 0; i < n; ++i) {
    const cdfg::OpKind kind = csr_.kind(NodeId(static_cast<std::uint32_t>(i)));
    if (!isTransparentKind(kind)) {
      counts[static_cast<std::size_t>(kind)] += 1;
    }
  }
  return counts;
}

std::vector<NodeId> LocalityDeriver::candidateRoots() const {
  std::vector<NodeId> roots;
  const std::size_t n = csr_.nodeCount();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    if (isTransparentKind(csr_.kind(v))) {
      continue;
    }
    if (!realPreds(csr_, v).empty()) {
      roots.push_back(v);
    }
  }
  return roots;
}

KindCounts shapeKindCounts(const cdfg::Cdfg& shape) {
  KindCounts counts{};
  for (const cdfg::Node& n : shape.nodes()) {
    counts[static_cast<std::size_t>(n.kind)] += 1;
  }
  return counts;
}

std::vector<KindCounts> anchorKindCounts(const cdfg::Cdfg& shape,
                                         std::uint32_t anchor_rank,
                                         std::uint32_t radius) {
  detail::check(anchor_rank < shape.nodeCount(),
                "anchorKindCounts: anchor rank outside the shape");
  // Shape nodes are all real, so the design-side walk counts exactly the
  // shape nodes within k predecessor hops.
  return faninLevels(cdfg::CsrView(shape), NodeId(anchor_rank), radius);
}

std::vector<ShapeHit> scanShapeMatches(const LocalityDeriver& deriver,
                                       const crypto::AuthorSignature& signature,
                                       const std::string& context,
                                       const LocalityParams& params,
                                       const cdfg::Cdfg& shape,
                                       const std::vector<NodeId>& roots) {
  LOCWM_OBS_SPAN("core.locality.shape_scan");
  LOCWM_OBS_COUNT("core.locality.shape_scan_roots", roots.size());
  // The sound root screen of locality.h: layer k must be covered by the
  // root's fanin ball of radius k, and the last layer is the whole shape.
  const std::optional<std::uint32_t> anchor = uniqueSink(shape);
  if (!anchor.has_value()) {  // every derived shape has one (claim 2)
    LOCWM_OBS_COUNT("core.locality.screened_roots", roots.size());
    return {};
  }
  std::vector<KindCounts> layers =
      anchorKindCounts(shape, *anchor, params.max_distance);
  layers.back() = shapeKindCounts(shape);
  // Each slot is written by exactly one task; the serial fold below
  // preserves `roots` order regardless of scheduling.
  std::vector<std::optional<ShapeHit>> found(roots.size());
  rt::parallel_for(0, roots.size(), /*grain=*/1, [&](std::size_t i) {
    const NodeId root = roots[i];
    if (!deriver.faninCovers(root, layers)) {
      LOCWM_OBS_COUNT("core.locality.screened_roots", 1);
      return;
    }
    crypto::KeyedBitstream carve_bits(signature, context + "/carve");
    const std::optional<Locality> loc =
        deriver.derive(root, params, carve_bits);
    if (!loc || !shapeEquals(loc->shape, shape)) {
      return;
    }
    found[i] = ShapeHit{root, loc->nodes};
  });
  std::vector<ShapeHit> hits;
  for (std::optional<ShapeHit>& hit : found) {
    if (hit.has_value()) {
      hits.push_back(std::move(*hit));
    }
  }
  return hits;
}

}  // namespace locwm::wm
