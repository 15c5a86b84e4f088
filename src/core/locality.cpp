#include "core/locality.h"

#include <algorithm>

#include "cdfg/error.h"
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

/// The `state` bit walkRealBall sets on every operation it reaches.
constexpr std::uint8_t kInBall = 1;

/// Breadth-first walk over the real operations within `radius` hops of
/// the real `root`.  A hop follows a data/control edge backwards — and
/// forwards too when `undirected` — through any chain of copies, never
/// across a pseudo-op (the traversal boundary).  Appends the operations
/// reached to `members` level by level, root first, and sets kInBall for
/// them in `state` (one byte per design node).  After level k = 1..radius
/// it calls on_level(k, first), where members[first..] is level k, and
/// stops when that returns false (then it returns false) or when a level
/// adds nothing.  Only membership matters, so a copy is expanded at most
/// once per direction: its first expansion happens at the smallest
/// distance, and a later one could only reach the same operations farther
/// out.
template <typename OnLevel>
bool walkRealBall(const cdfg::CsrView& view, NodeId root, std::uint32_t radius,
                  bool undirected, std::vector<std::uint8_t>& state,
                  std::vector<NodeId>& members, OnLevel&& on_level) {
  constexpr std::uint8_t kExpanded[2] = {2, 4};  // by predecessors, successors
  state.assign(view.nodeCount(), 0);
  state[root.value()] = kInBall;
  members.assign(1, root);
  std::vector<NodeId> stack;
  std::size_t level_begin = 0;
  for (std::uint32_t d = 0; d < radius && level_begin < members.size(); ++d) {
    const std::size_t level_end = members.size();
    for (std::size_t i = level_begin; i < level_end; ++i) {
      for (int dir = 0; dir < (undirected ? 2 : 1); ++dir) {
        const auto next = [&](NodeId x) {
          return dir == 0 ? view.predecessors(x, cdfg::EdgeSel::kDataControl)
                          : view.successors(x, cdfg::EdgeSel::kDataControl);
        };
        const auto first = next(members[i]);
        stack.assign(first.begin(), first.end());
        while (!stack.empty()) {
          const NodeId p = stack.back();
          stack.pop_back();
          const cdfg::OpKind kind = view.kind(p);
          std::uint8_t& st = state[p.value()];
          if (kind == cdfg::OpKind::kCopy) {
            if ((st & kExpanded[dir]) == 0) {
              st |= kExpanded[dir];
              const auto more = next(p);
              stack.insert(stack.end(), more.begin(), more.end());
            }
          } else if (!cdfg::isPseudoOp(kind) && (st & kInBall) == 0) {
            st |= kInBall;
            members.push_back(p);
          }
        }
      }
    }
    level_begin = level_end;
    if (!on_level(d + 1, level_begin)) {
      return false;
    }
  }
  return true;
}

/// The members of the ball walkRealBall walks, ascending by id:
/// derive()'s Step 1 balls.
std::vector<NodeId> realBall(const cdfg::CsrView& view, NodeId root,
                             std::uint32_t radius, bool undirected) {
  std::vector<std::uint8_t> state;
  std::vector<NodeId> members;
  walkRealBall(view, root, radius, undirected, state, members,
               [](std::uint32_t, std::size_t) { return true; });
  // A scan of the marks, which cost O(design) to clear anyway.
  std::size_t k = 0;
  for (std::size_t v = 0; v < state.size(); ++v) {
    if ((state[v] & kInBall) != 0) {
      members[k++] = NodeId(static_cast<std::uint32_t>(v));
    }
  }
  return members;
}

/// A contracted identification graph, straight in CSR form.  Context node
/// i is the design's members[i]; edges[j] is contracted edge j.
struct Context {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<NodeId> members;
  /// local_of[design node] = context id, or kNone.
  std::vector<std::uint32_t> local_of;
  std::vector<cdfg::Edge> edges;
  cdfg::CsrView view;
};

/// Contracts the design over `members` (ascending, all non-transparent):
/// direct edges keep their kind; edges that pass through copy chains are
/// contracted to data edges, preserving path multiplicity (x + x through a
/// copy stays a double edge).  Edges are numbered member by member, each
/// member's out-edges in design edge-id order with every copy chain
/// expanded depth-first in place.  All identification — ordering, carving,
/// shapes — happens on this graph, so splitting edges with copies cannot
/// perturb detection.
Context contract(const cdfg::CsrView& design, std::vector<NodeId> members) {
  Context ctx;
  ctx.members = std::move(members);
  ctx.local_of.assign(design.nodeCount(), Context::kNone);
  std::vector<cdfg::OpKind> kinds;
  kinds.reserve(ctx.members.size());
  for (std::uint32_t i = 0; i < ctx.members.size(); ++i) {
    ctx.local_of[ctx.members[i].value()] = i;
    kinds.push_back(design.kind(ctx.members[i]));
  }
  std::vector<NodeId> stack;
  for (std::uint32_t i = 0; i < ctx.members.size(); ++i) {
    const NodeId src(i);
    forEachDataControlOut(design, ctx.members[i], [&](NodeId dst,
                                                      cdfg::EdgeKind kind) {
      if (const std::uint32_t d = ctx.local_of[dst.value()];
          d != Context::kNone) {
        ctx.edges.push_back({src, NodeId(d), kind});
        return;
      }
      if (design.kind(dst) != cdfg::OpKind::kCopy) {
        return;  // boundary (pseudo-op or outside the member set)
      }
      // Expand the copy chain, preserving multiplicity (no dedup).
      stack.assign(1, dst);
      std::size_t guard = 0;
      while (!stack.empty() && ++guard < 4096) {
        const NodeId p = stack.back();
        stack.pop_back();
        forEachDataControlOut(design, p, [&](NodeId q, cdfg::EdgeKind) {
          if (design.kind(q) == cdfg::OpKind::kCopy) {
            stack.push_back(q);
          } else if (const std::uint32_t d = ctx.local_of[q.value()];
                     d != Context::kNone) {
            ctx.edges.push_back({src, NodeId(d), cdfg::EdgeKind::kData});
          }
        });
      }
    });
  }
  ctx.view = cdfg::CsrView(kinds, ctx.edges);
  return ctx;
}

/// The canonical ordering of a contracted identification context.
/// Automorphic nodes (tied ranks) cannot be identified reproducibly on a
/// re-indexed copy, so rank_of gives them kTied and the carve never
/// selects them.
struct RankedContext {
  static constexpr std::uint32_t kTied = 0xFFFFFFFFu;
  /// Context nodes by ascending canonical rank.
  std::vector<NodeId> ordered;
  /// rank_of[context node] = canonical rank, or kTied.
  std::vector<std::uint32_t> rank_of;
};

RankedContext rankContext(const cdfg::CsrView& context) {
  cdfg::NodeOrdering ordering =
      cdfg::computeOrdering(cdfg::StructuralAnalysis(context));
  RankedContext out;
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

/// The shape over `picked` (context nodes by ascending rank): node i is
/// picked[i], and the edges are the contracted edges between picked nodes
/// in contracted-edge-id order.  The context has no temporal edges and no
/// labels, so this is the stripped, scrubbed induced subgraph with node
/// id == rank.
cdfg::Cdfg assembleShape(const Context& ctx,
                         const std::vector<NodeId>& picked) {
  std::vector<std::uint32_t> pos(ctx.members.size(), Context::kNone);
  cdfg::Cdfg shape;
  for (std::uint32_t i = 0; i < picked.size(); ++i) {
    pos[picked[i].value()] = i;
    shape.addNode(ctx.view.kind(picked[i]));
  }
  for (const cdfg::Edge& ed : ctx.edges) {
    const std::uint32_t s = pos[ed.src.value()];
    const std::uint32_t d = pos[ed.dst.value()];
    if (s != Context::kNone && d != Context::kNone) {
      shape.addEdge(NodeId(s), NodeId(d), ed.kind);
    }
  }
  return shape;
}

}  // namespace

std::optional<Locality> LocalityDeriver::derive(
    NodeId root, const LocalityParams& params,
    crypto::KeyedBitstream& bits) const {
  LOCWM_OBS_SPAN("core.locality.derive");
  LOCWM_OBS_COUNT("core.locality.derive_calls", 1);
  if (isTransparentKind(csr_.kind(root))) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return std::nullopt;
  }

  std::vector<NodeId> to_nodes;
  std::vector<NodeId> ctx_nodes;
  {
    LOCWM_OBS_SPAN("core.locality.derive.ball");
    // --- Step 1a: the fanin tree To of max-distance Δ, real ops only —
    // the set the carve may select from (the paper's To).
    to_nodes = realBall(csr_, root, params.max_distance, /*undirected=*/false);
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
    ctx_nodes = realBall(csr_, root, params.max_distance, /*undirected=*/true);
  }
  LOCWM_OBS_COUNT("core.locality.context_nodes", ctx_nodes.size());

  // --- Step 2: canonical ordering of the context's contracted graph; the
  // root itself must be uniquely identified.
  const Context ctx = [&] {
    LOCWM_OBS_SPAN("core.locality.derive.contract");
    return contract(csr_, std::move(ctx_nodes));
  }();
  const RankedContext ranked = [&] {
    LOCWM_OBS_SPAN("core.locality.derive.order");
    return rankContext(ctx.view);
  }();
  const std::vector<std::uint32_t>& rank_of = ranked.rank_of;
  constexpr std::uint32_t kTied = RankedContext::kTied;
  const NodeId root_local(ctx.local_of[root.value()]);
  if (rank_of[root_local.value()] == kTied) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return std::nullopt;
  }

  // --- Step 3: keyed breadth-first carve of T ⊆ To. ---
  LOCWM_OBS_SPAN("core.locality.derive.carve");
  const std::size_t size = ctx.members.size();
  std::vector<bool> in_to(size, false);
  for (const NodeId v : to_nodes) {
    in_to[ctx.local_of[v.value()]] = true;
  }
  std::vector<bool> carved(size, false);
  carved[root_local.value()] = true;
  std::vector<NodeId> frontier{root_local};
  std::vector<NodeId> preds;
  while (!frontier.empty()) {
    // Deterministic frontier order: ascending canonical rank.
    const auto by_rank = [&](NodeId a, NodeId b) {
      return rank_of[a.value()] < rank_of[b.value()];
    };
    std::sort(frontier.begin(), frontier.end(), by_rank);
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      // Only fanin-tree members are selectable, and automorphic
      // predecessors are invisible to the carve.  Every context node is
      // real, so its real predecessors are its distinct predecessors.
      preds.clear();
      for (const NodeId p :
           ctx.view.predecessors(v, cdfg::EdgeSel::kDataControl)) {
        if (in_to[p.value()] && rank_of[p.value()] != kTied) {
          preds.push_back(p);
        }
      }
      std::sort(preds.begin(), preds.end(), by_rank);
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
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

  // --- Step 4: assemble the locality in canonical-rank order.  Temporal
  // edges (from previously embedded watermarks) never reach the context:
  // the published design carries none, and the fingerprint must match it.
  std::vector<NodeId> carved_local;  // context ids, by ascending rank
  for (const NodeId v : ranked.ordered) {
    if (carved[v.value()]) {
      carved_local.push_back(v);
    }
  }
  if (carved_local.size() < params.min_size) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return std::nullopt;
  }
  Locality result;
  result.root = root;
  result.nodes.reserve(carved_local.size());
  for (const NodeId v : carved_local) {
    result.nodes.push_back(ctx.members[v.value()]);
  }
  result.shape = assembleShape(ctx, carved_local);
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
  const Context ctx = contract(csr_, std::move(real));
  const RankedContext ranked = rankContext(ctx.view);
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
    result.nodes.push_back(ctx.members[v.value()]);
  }
  result.shape = assembleShape(ctx, untied_local);
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

/// The kind histograms of derive()'s Step 1a ball around a real `root`:
/// calls on_level(k, counts) with the histogram of the ball of radius k,
/// for k = 0..radius, and stops early when it returns false or when the
/// ball stops growing.  Returns the last counts reported, or nullopt when
/// on_level stopped the walk.
template <typename OnLevel>
std::optional<KindCounts> walkFaninLevels(const cdfg::CsrView& v, NodeId root,
                                          std::uint32_t radius,
                                          OnLevel&& on_level) {
  KindCounts counts{};
  counts[static_cast<std::size_t>(v.kind(root))] += 1;
  if (!on_level(0, counts)) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> state;
  std::vector<NodeId> members;
  const bool walked = walkRealBall(
      v, root, radius, /*undirected=*/false, state, members,
      [&](std::uint32_t k, std::size_t first) {
        for (std::size_t i = first; i < members.size(); ++i) {
          counts[static_cast<std::size_t>(v.kind(members[i]))] += 1;
        }
        return on_level(k, counts);
      });
  if (!walked) {
    return std::nullopt;
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
  // A root needs a real operation among its copy-transparent
  // predecessors, so each walk stops at the first one.  walked[c] names
  // the last root whose walk expanded copy c.
  std::vector<NodeId> roots;
  const std::size_t n = csr_.nodeCount();
  std::vector<NodeId> walked(n, NodeId::invalid());
  std::vector<NodeId> stack;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    if (isTransparentKind(csr_.kind(v))) {
      continue;
    }
    const auto preds = csr_.predecessors(v, cdfg::EdgeSel::kDataControl);
    stack.assign(preds.begin(), preds.end());
    while (!stack.empty()) {
      const NodeId p = stack.back();
      stack.pop_back();
      const cdfg::OpKind kind = csr_.kind(p);
      if (kind == cdfg::OpKind::kCopy) {
        if (walked[p.value()] != v) {
          walked[p.value()] = v;
          const auto more =
              csr_.predecessors(p, cdfg::EdgeSel::kDataControl);
          stack.insert(stack.end(), more.begin(), more.end());
        }
      } else if (!cdfg::isPseudoOp(kind)) {
        roots.push_back(v);
        break;
      }
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
