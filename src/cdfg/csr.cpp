#include "cdfg/csr.h"

#include "obs/obs.h"

namespace locwm::cdfg {

namespace {

std::vector<OpKind> kindTable(const Cdfg& g) {
  std::vector<OpKind> kinds;
  kinds.reserve(g.nodeCount());
  for (const Node& n : g.nodes()) {
    kinds.push_back(n.kind);
  }
  return kinds;
}

/// The edge table with every tombstone's src invalidated; only graphs
/// with removed edges need this copy.
std::vector<Edge> tombstonedEdges(const Cdfg& g) {
  std::vector<Edge> edges = g.edges();
  for (std::size_t id = 0; id < edges.size(); ++id) {
    if (!g.edgeAlive(EdgeId(static_cast<std::uint32_t>(id)))) {
      edges[id].src = NodeId::invalid();
    }
  }
  return edges;
}

}  // namespace

// The temporaries live until the delegated constructor returns.
CsrView::CsrView(const Cdfg& g)
    : CsrView(kindTable(g), g.edgeCount() == g.edgeTableSize()
                                ? std::span<const Edge>(g.edges())
                                : std::span<const Edge>(tombstonedEdges(g))) {}

CsrView::CsrView(std::span<const OpKind> kinds_in,
                 std::span<const Edge> edge_tab) {
  const std::size_t n = kinds_in.size();
  const std::size_t table = edge_tab.size();
  std::size_t e = 0;
  for (const Edge& ed : edge_tab) {
    e += ed.src.isValid() ? 1u : 0u;
  }
  nodes_ = n;
  edges_ = e;

  const std::size_t off_words = 3 * n + 1;       // per direction
  const std::size_t kind_words = (n + 3) / 4;    // one byte per node, packed
  arena_.assign(2 * off_words + 4 * e + kind_words, 0);

  std::uint32_t* out_off = arena_.data();
  std::uint32_t* in_off = out_off + off_words;
  std::uint32_t* out_node = in_off + off_words;
  std::uint32_t* out_edge = out_node + e;
  std::uint32_t* in_node = out_edge + e;
  std::uint32_t* in_edge = in_node + e;
  auto* kinds = reinterpret_cast<std::uint8_t*>(in_edge + e);

  for (std::size_t v = 0; v < n; ++v) {
    kinds[v] = static_cast<std::uint8_t>(kinds_in[v]);
  }

  // Counting sort by (node, kind) over the live edges.  Pass 1: segment
  // sizes, stored one slot ahead so the exclusive prefix sum can run in
  // place.
  for (const Edge& ed : edge_tab) {
    if (!ed.src.isValid()) {
      continue;
    }
    const auto k = static_cast<std::size_t>(ed.kind);
    ++out_off[std::size_t{3} * ed.src.value() + k + 1];
    ++in_off[std::size_t{3} * ed.dst.value() + k + 1];
  }
  for (std::size_t i = 1; i < off_words; ++i) {
    out_off[i] += out_off[i - 1];
    in_off[i] += in_off[i - 1];
  }

  // Pass 2: fill in edge-id order, so within each (node, kind) segment
  // neighbours keep edge-id order.  Cursors start at the segment offsets.
  std::vector<std::uint32_t> out_cur(out_off, out_off + off_words - 1);
  std::vector<std::uint32_t> in_cur(in_off, in_off + off_words - 1);
  for (std::size_t id = 0; id < table; ++id) {
    const Edge& ed = edge_tab[id];
    if (!ed.src.isValid()) {
      continue;
    }
    const auto k = static_cast<std::size_t>(ed.kind);
    const std::uint32_t o = out_cur[std::size_t{3} * ed.src.value() + k]++;
    out_node[o] = ed.dst.value();
    out_edge[o] = static_cast<std::uint32_t>(id);
    const std::uint32_t i = in_cur[std::size_t{3} * ed.dst.value() + k]++;
    in_node[i] = ed.src.value();
    in_edge[i] = static_cast<std::uint32_t>(id);
  }

  out_off_ = out_off;
  in_off_ = in_off;
  out_node_ = reinterpret_cast<const NodeId*>(out_node);
  out_edge_ = reinterpret_cast<const EdgeId*>(out_edge);
  in_node_ = reinterpret_cast<const NodeId*>(in_node);
  in_edge_ = reinterpret_cast<const EdgeId*>(in_edge);
  kinds_ = kinds;

  LOCWM_OBS_GAUGE_MAX("cdfg.csr.arena_bytes", memoryBytes());
}

}  // namespace locwm::cdfg
