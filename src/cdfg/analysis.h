// Structural analyses over a CDFG: levels, heights, critical path, laxity,
// transitive-fanin neighbourhoods, and fanin-tree extraction.
//
// Everything in this header is *unit-weight* (path lengths counted in
// operations), matching the paper's use: ordering criterion C1 levels,
// laxity expressed in "operations", and critical-path length C.  The
// latency-aware ASAP/ALAP machinery lives in sched/.
//
// Pseudo-operations (inputs, outputs, constants) take no control step; they
// contribute zero length to paths through them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/ids.h"

namespace locwm::cdfg {

/// Per-node structural metrics of one graph, computed once.
class StructuralAnalysis {
 public:
  /// Computes all metrics over `view`, which must outlive the analysis.
  /// Temporal edges are excluded: structural identification must see the
  /// *original* specification, otherwise the watermark constraints would
  /// perturb the identifiers used to detect them.  Throws GraphError when
  /// the data/control edges form a cycle.
  explicit StructuralAnalysis(const CsrView& view);

  /// Same metrics over a builder: lowers a view the analysis owns.
  explicit StructuralAnalysis(const Cdfg& graph);

  /// Level of a node: the longest path (in non-pseudo operations, inclusive
  /// of the node itself when it is not a pseudo-op) from any source to the
  /// node.  Sources with no predecessors have level 0 (pseudo) or 1 (real
  /// op).  This is ordering criterion C1.
  [[nodiscard]] std::uint32_t level(NodeId n) const;

  /// Height of a node: the longest path from the node to any sink,
  /// counted the same way as level().
  [[nodiscard]] std::uint32_t height(NodeId n) const;

  /// Length of the critical path of the whole CDFG, in operations.
  [[nodiscard]] std::uint32_t criticalPathLength() const noexcept {
    return critical_path_;
  }

  /// Laxity of a node per §IV-A: the length of the longest source→sink path
  /// passing through the node.  Nodes on the critical path have laxity ==
  /// criticalPathLength().
  [[nodiscard]] std::uint32_t laxity(NodeId n) const;

  /// Slack of a node: criticalPathLength() - laxity(n).
  [[nodiscard]] std::uint32_t slack(NodeId n) const;

  /// Number of nodes in the transitive fanin of `n` restricted to distance
  /// <= dist (n itself excluded).  This is ordering criterion C2's |TF|.
  [[nodiscard]] std::size_t transitiveFaninCount(NodeId n,
                                                 std::uint32_t dist) const;

  /// The nodes of the fanin tree of `n` with max-distance `dist`:
  /// every node reachable from `n` by walking data/control edges backwards
  /// at most `dist` steps, including `n` itself.  Deterministic order:
  /// breadth-first, ties by ascending node id.
  [[nodiscard]] std::vector<NodeId> faninTree(NodeId n,
                                              std::uint32_t dist) const;

  /// Sorted multiset of functionality ids (see functionalityId()) of the
  /// fanin tree of `n` at max-distance `dist`, *excluding* n itself.  This
  /// is ordering criterion C3's F(Dx) realized as a comparable value.
  [[nodiscard]] std::vector<std::uint8_t> functionalitySignature(
      NodeId n, std::uint32_t dist) const;

  /// The CSR view the analysis was computed over.  The ordering
  /// refinement (ordering.cpp) and every other read-mostly consumer of the
  /// analysis traverses it.  Snapshot semantics: a builder mutated after
  /// lowering is not reflected — which would stale the level/height tables
  /// anyway.
  [[nodiscard]] const CsrView& csr() const noexcept { return *view_; }

 private:
  /// Fills the level/height tables and the critical path from *view_.
  void compute();

  /// The lowered builder of the Cdfg constructor; empty otherwise.  Heap-
  /// held so view_ survives moves of the analysis.
  std::unique_ptr<const CsrView> owned_;
  const CsrView* view_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> height_;
  std::uint32_t critical_path_ = 0;
};

}  // namespace locwm::cdfg
