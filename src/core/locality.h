// Locality (domain) selection and identification — §III / §IV-A steps
// "domain selection" and "domain identification".
//
// A local watermark lives in a *locality*: a signature-selected subtree T of
// the fanin tree To of some root node.  Two properties make localities the
// right carrier:
//
//  1. Derivation is purely structural.  Given a root, the carve depends
//     only on the induced subgraph of the fanin tree (canonical node
//     ordering, ordering.h) and on the author-keyed bitstream — never on
//     node indices, labels, or the rest of the design.  A reverse-
//     engineered, re-indexed, or host-embedded copy yields the same
//     locality, which is what makes detection possible.
//
//  2. Derivation is root-anchored.  The detector can therefore scan every
//     node of a suspect design as a candidate root and re-derive; a match
//     of the memorized locality identifies the watermark even when the
//     protected core is a small part of a large system (§I).
//
// Traversal walks data/control predecessors of *real* operations only;
// pseudo-ops (primary inputs, constants) are the core's boundary and are
// neither included nor crossed, so stitching the core's inputs into a host
// design does not perturb derivation.  Temporal edges are never followed:
// the locality must not depend on previously embedded watermarks.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/operation.h"
#include "cdfg/ordering.h"
#include "crypto/bitstream.h"

namespace locwm::wm {

/// Operation-kind histogram, indexed by the dense OpKind value.
using KindCounts = std::array<std::uint32_t, cdfg::kOpKindCount>;

/// Parameters of domain selection.
struct LocalityParams {
  /// Max fanin distance Δ of the initial subtree To around the root.
  std::uint32_t max_distance = 6;
  /// Probability (in 1/256ths) that an *optional* input is excluded during
  /// the keyed breadth-first carve; one input per node is always kept.
  std::uint32_t exclude_prob_256 = 96;  // ~0.375
  /// Minimum acceptable carved size |T|; derivation fails below this.
  std::size_t min_size = 4;
};

/// A derived locality.
struct Locality {
  /// Root node, in the coordinates of the graph derived from.
  cdfg::NodeId root;
  /// The carved nodes T in canonical-rank order: nodes[i] has rank i.
  std::vector<cdfg::NodeId> nodes;
  /// Induced subgraph of T, *renumbered so node id == rank*.  This is the
  /// structural fingerprint compared during detection.
  cdfg::Cdfg shape;

  [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }

  /// True when `other` is structurally identical (same shape graph:
  /// node kinds and edge set under rank numbering).
  [[nodiscard]] bool sameShape(const Locality& other) const;
};

/// True when two rank-numbered shape graphs are identical: same node kinds
/// per rank and same (src, dst, kind) edge multiset.
[[nodiscard]] bool shapeEquals(const cdfg::Cdfg& a, const cdfg::Cdfg& b);

/// Derives localities from a graph.
///
/// Construction lowers a CSR snapshot of the graph; every traversal the
/// deriver performs (fanin balls, copy-chain walks, root scans) runs on
/// that snapshot.  The snapshot stays semantically valid across *temporal*
/// edge additions — the only mutation the embedders perform between
/// derivations — because derivation never follows temporal edges (see the
/// file comment).  Any other mutation requires constructing a new deriver.
class LocalityDeriver {
 public:
  explicit LocalityDeriver(const cdfg::Cdfg& graph) : csr_(graph) {}

  /// Derives the locality anchored at `root`, consuming carve decisions
  /// from `bits`.  Returns nullopt when the fanin tree cannot be uniquely
  /// ordered (automorphic nodes) or the carve is smaller than
  /// params.min_size.  The number of bits consumed is identical for
  /// identical structures — the detection replay guarantee.
  [[nodiscard]] std::optional<Locality> derive(
      cdfg::NodeId root, const LocalityParams& params,
      crypto::KeyedBitstream& bits) const;

  /// All plausible roots: real operations with at least one real
  /// predecessor (a root with an empty fanin tree carries no watermark).
  [[nodiscard]] std::vector<cdfg::NodeId> candidateRoots() const;

  /// The degenerate "T = CDFG" locality the paper's Table II uses: every
  /// uniquely-identifiable real operation of the whole design, in
  /// canonical-rank order (root is invalid — there is no anchor; detection
  /// compares against the whole suspect design).  Returns nullopt when
  /// fewer than `minSize` nodes are uniquely identifiable.
  [[nodiscard]] std::optional<Locality> wholeDesign(
      std::size_t minSize = 2) const;

  /// The CSR snapshot the deriver traverses.  Exposed so detection scans
  /// sharing the deriver (sched/reg/tm) can reuse it instead of lowering
  /// their own.
  [[nodiscard]] const cdfg::CsrView& csr() const noexcept { return csr_; }

  /// Operation-kind histograms of the directed copy-transparent fanin
  /// balls around `root`, root included — the member sets of derive()'s
  /// Step 1a fanin tree To.  Element k counts the ball of radius k, for
  /// k = 0..radius; the walk stops once the ball stops growing, so the
  /// result may be shorter and back() then holds every larger radius.
  /// Every carve at max_distance <= k selects its nodes from ball k and the
  /// contracted shape preserves node kinds, so any matched locality's kind
  /// counts are component-wise <= these — the superset relation the root
  /// screen of scanShapeMatches tests.  Returns one all-zero element for
  /// transparent roots (derive() rejects them outright).
  [[nodiscard]] std::vector<KindCounts> faninKindCounts(
      cdfg::NodeId root, std::uint32_t radius) const;

  /// True when the fanin ball of radius k around `root` covers layers[k]
  /// for every k, and the whole fanin cone covers layers.back().  `layers`
  /// must grow monotonically.  One level-by-level walk that stops at the
  /// first level that fails; false for transparent roots.
  [[nodiscard]] bool faninCovers(cdfg::NodeId root,
                                 const std::vector<KindCounts>& layers) const;

  /// Kind histogram over every real (non-transparent) operation — the
  /// superset any wholeDesign() locality selects from.
  [[nodiscard]] KindCounts realKindCounts() const;

 private:
  cdfg::CsrView csr_;
};

/// One hit found by scanShapeMatches: the root the shape re-derived at and
/// the matched suspect nodes in canonical-rank order (nodes[i] has rank i).
struct ShapeHit {
  cdfg::NodeId root;
  std::vector<cdfg::NodeId> nodes;
};

/// Kind histogram of every node of a shape graph.
[[nodiscard]] KindCounts shapeKindCounts(const cdfg::Cdfg& shape);

/// Kind histograms of the anchor's fanin balls inside a shape: element k
/// counts the shape nodes within k predecessor hops of the node at
/// `anchor_rank`, for k = 0..radius.  Like faninKindCounts, the result
/// stops once the ball stops growing (at most nodeCount() + 1 elements).
[[nodiscard]] std::vector<KindCounts> anchorKindCounts(
    const cdfg::Cdfg& shape, std::uint32_t anchor_rank, std::uint32_t radius);

/// The structural core shared by the sched/reg/tm detectors and the corpus
/// scanner: re-derive the keyed locality at every root in `roots` and
/// collect those whose shape equals `shape`.
///
/// Every root first passes the sound root screen below and is skipped
/// without deriving when it fails; skipped roots are counted in the
/// `core.locality.screened_roots` obs counter.  Roots are scanned in
/// parallel on the rt pool with hits folded back in `roots` order, so the
/// result is identical to a serial left-to-right scan at any thread count.
///
/// Sound root screen.  Let c match at root r: derive(r) yields a locality
/// whose shape equals `shape`.  Then these necessary conditions hold,
/// regardless of the key, the carve probabilities or the canonical order:
///
///  1. Every carved node lies in the directed copy-transparent fanin ball
///     of radius max_distance around r (derive() Step 1a/3), and the
///     contracted shape preserves node kinds.  So shapeKindCounts(shape)
///     is component-wise <= the counts of that ball.
///  2. The carve is a fanin breadth-first walk from r, so every carved
///     node reaches r inside the shape; the shape is acyclic, so r is its
///     unique sink.  A shape with no unique sink matches nowhere, and the
///     anchor — the sink's rank — is computed from the shape alone.
///  3. Each shape edge p -> q is a contracted edge, i.e. a design path from
///     p to q through copies only, so p is a copy-transparent real
///     predecessor of q.  A shape node within k predecessor hops of the
///     anchor thus lies in r's fanin ball of radius k, and distinct shape
///     nodes are distinct design nodes.  So anchorKindCounts(shape,
///     anchor, max_distance)[k] is component-wise <= the counts of r's
///     fanin ball of radius k for every k; at k = 0 this says r has the
///     anchor's kind.  When the anchor's ball stops growing at level K it
///     holds the whole shape (every node reaches the sink), so r's ball of
///     radius K already covers the shape.
///
/// The screen checks 3 level by level with the last level raised to 1, in
/// one fanin walk per root that stops at the first failing level.  The
/// corpus scanner (scan/fingerprint.h) encodes the counts of 1 and of 3 at
/// k = 1 as threshold fingerprints to screen whole (certificate, design)
/// pairs before any design is lowered.
[[nodiscard]] std::vector<ShapeHit> scanShapeMatches(
    const LocalityDeriver& deriver, const crypto::AuthorSignature& signature,
    const std::string& context, const LocalityParams& params,
    const cdfg::Cdfg& shape, const std::vector<cdfg::NodeId>& roots);

}  // namespace locwm::wm
