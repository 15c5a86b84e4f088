// Generic worklist/fixpoint dataflow engine over a cdfg::CsrView
// snapshot, plus the graph analyses the semantic rules (LW6xx), the
// incremental analyser and the differential verifier are built on.
//
// The engine solves monotone dataflow problems: a *domain* owns one
// abstract state per node and a transfer function over edges; the engine
// propagates states along (forward) or against (backward) the selected
// edge kinds until nothing changes.  On acyclic graphs (the CDFG norm)
// the FIFO worklist seeded in id order converges in a handful of sweeps;
// on cyclic garbage from lenient parsing the visit cap guarantees
// termination and the stats report non-convergence instead of hanging.
//
// Every analysis runs on the CSR view (see csr.h and docs/GRAPH_CORE.md):
// neighbour visits walk contiguous per-kind spans.  Callers holding a
// cdfg::Cdfg builder lower it once per analysis batch.  ASAP/ALAP timing
// is not here: sched::TimeFrames is the one timing analysis, and the
// LW602 rule reads it directly.
//
// Domain contract (duck-typed, see ClosureDomain for the smallest
// example):
//
//   bool edgeTransfer(cdfg::NodeId from, cdfg::NodeId to,
//                     cdfg::EdgeKind kind);
//     Propagates `from`'s state into `to`'s state across an edge of
//     `kind` and returns true iff `to`'s state changed.  Forward solving
//     passes (src, dst, kind); backward solving passes (dst, src, kind).
//     Transfer must be monotone over a finite-height lattice for the
//     solver to converge.
//
// Instantiations provided here:
//   * PrecedenceClosure — per-node ancestor bitsets (must-precede
//     relation); drives redundant-temporal-edge detection (LW601) and
//     certificate-locality reasoning.
//   * Reachability      — boolean mark spreading from seed nodes, forward
//     (reachable-from-inputs, LW604) or backward (live-into-outputs,
//     LW603).
//   * hasPathSkipping   — per-query DFS path oracle that can skip one edge.
#pragma once

#include <cstdint>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/ids.h"

namespace locwm::check {

/// Which way states propagate: along edges or against them.
enum class Direction : std::uint8_t { kForward, kBackward };

/// Which edge kinds participate in an analysis.
struct EdgeMask {
  bool data = true;
  bool control = true;
  bool temporal = true;

  [[nodiscard]] constexpr bool accepts(cdfg::EdgeKind k) const noexcept {
    switch (k) {
      case cdfg::EdgeKind::kData:
        return data;
      case cdfg::EdgeKind::kControl:
        return control;
      case cdfg::EdgeKind::kTemporal:
        return temporal;
    }
    return false;
  }

  [[nodiscard]] static constexpr EdgeMask all() { return {true, true, true}; }
  [[nodiscard]] static constexpr EdgeMask dataControl() {
    return {true, true, false};
  }
  [[nodiscard]] static constexpr EdgeMask dataOnly() {
    return {true, false, false};
  }
};

/// What one fixpoint run did.  `updates == 0` on a rerun over an already
/// converged domain — the idempotence property the tests pin.
struct FixpointStats {
  std::size_t visits = 0;   ///< worklist pops
  std::size_t updates = 0;  ///< state changes applied
  bool converged = true;    ///< false when the visit cap was hit
};

/// Solves `domain` to fixpoint over the view `v`.  `max_visits` caps
/// worklist pops (0 = automatic: generous enough for any monotone
/// finite-height domain, small enough to terminate on a non-converging
/// one).
template <typename Domain>
FixpointStats solveFixpoint(const cdfg::CsrView& v, Direction dir,
                            const EdgeMask& mask, Domain& domain,
                            std::size_t max_visits = 0) {
  FixpointStats stats;
  const std::size_t n = v.nodeCount();
  if (n == 0) {
    return stats;
  }
  if (max_visits == 0) {
    // An N-bit-per-node domain changes each node's state at most N times;
    // every change re-queues at most one node.
    max_visits = (n + 1) * (n + v.edgeCount() + 1);
  }

  std::vector<char> queued(n, 1);
  std::vector<std::uint32_t> fifo;
  fifo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Node ids are dense in creation order, which is topological for every
    // generator in this codebase — seeding forward in id order (backward
    // in reverse) makes the common case converge in one sweep.
    fifo.push_back(static_cast<std::uint32_t>(
        dir == Direction::kForward ? i : n - 1 - i));
  }
  std::size_t head = 0;

  while (head < fifo.size()) {
    if (stats.visits >= max_visits) {
      stats.converged = false;
      return stats;
    }
    const cdfg::NodeId node(fifo[head++]);
    queued[node.value()] = 0;
    ++stats.visits;
    // Reclaim the consumed queue prefix occasionally.
    if (head > n && head * 2 > fifo.size()) {
      fifo.erase(fifo.begin(),
                 fifo.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }

    for (const cdfg::EdgeKind kind : cdfg::kCsrKindOrder) {
      if (!mask.accepts(kind)) {
        continue;
      }
      const cdfg::EdgeSel sel = cdfg::edgeSelOf(kind);
      const auto nbrs = dir == Direction::kForward
                            ? v.successors(node, sel)
                            : v.predecessors(node, sel);
      for (const cdfg::NodeId to : nbrs) {
        if (domain.edgeTransfer(node, to, kind)) {
          ++stats.updates;
          if (queued[to.value()] == 0) {
            queued[to.value()] = 1;
            fifo.push_back(to.value());
          }
        }
      }
    }
  }
  return stats;
}

/// Dense rows of bits: rows[i] is an N-bit set.  The state storage of the
/// closure domain (and anything else set-valued).
class BitRows {
 public:
  BitRows() = default;
  BitRows(std::size_t rows, std::size_t bits);

  [[nodiscard]] bool test(std::size_t row, std::size_t bit) const;
  /// Sets one bit; returns true iff it was previously clear.
  bool set(std::size_t row, std::size_t bit);
  /// rows[dst] |= rows[src]; returns true iff rows[dst] changed.
  bool unionInto(std::size_t dst, std::size_t src);
  /// Number of set bits in a row.
  [[nodiscard]] std::size_t popcount(std::size_t row) const;
  /// True when the rows share at least one set bit.
  [[nodiscard]] bool intersects(std::size_t a, std::size_t b) const;
  /// Clears every bit of a row.
  void clearRow(std::size_t row);
  /// rows[dst] = other.rows[src] (same bit width required).
  void copyRowFrom(const BitRows& other, std::size_t dst, std::size_t src);
  /// rows[dst] |= other.rows[src]; returns true iff rows[dst] changed.
  bool unionRowFrom(const BitRows& other, std::size_t dst, std::size_t src);
  /// rows[a] == other.rows[b], bit for bit.
  [[nodiscard]] bool rowEquals(const BitRows& other, std::size_t a,
                               std::size_t b) const;

  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_; }
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return bits_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Transitive must-precede closure: ancestors(n) = every node from which n
/// is reachable over the masked edges.  Forward union domain.
struct ClosureDomain {
  explicit ClosureDomain(std::size_t n) : ancestors(n, n) {}
  BitRows ancestors;

  bool edgeTransfer(cdfg::NodeId from, cdfg::NodeId to, cdfg::EdgeKind) {
    const bool a = ancestors.set(to.value(), from.value());
    const bool b = ancestors.unionInto(to.value(), from.value());
    return a || b;
  }
};

/// Solved closure.  Memory is O(N^2 / 8): callers gate construction on
/// node count (see kClosureNodeLimit) and fall back to per-query DFS.
struct PrecedenceClosure {
  ClosureDomain domain;
  FixpointStats stats;

  /// True when `a` must execute before `b` (a path a -> b exists over the
  /// masked edges).
  [[nodiscard]] bool precedes(cdfg::NodeId a, cdfg::NodeId b) const {
    return domain.ancestors.test(b.value(), a.value());
  }
};

/// Above this node count the closure's bit matrix is not worth its memory
/// (8192^2 bits = 8 MiB); rules fall back to per-edge DFS.
inline constexpr std::size_t kClosureNodeLimit = 8192;

[[nodiscard]] PrecedenceClosure computePrecedenceClosure(
    const cdfg::CsrView& v, const EdgeMask& mask = EdgeMask::all());

/// Boolean mark spreading from seeds.
struct ReachDomain {
  explicit ReachDomain(std::size_t n) : mark(n, 0) {}
  std::vector<char> mark;

  bool edgeTransfer(cdfg::NodeId from, cdfg::NodeId to, cdfg::EdgeKind) {
    if (mark[from.value()] != 0 && mark[to.value()] == 0) {
      mark[to.value()] = 1;
      return true;
    }
    return false;
  }
};

struct Reachability {
  ReachDomain domain;
  FixpointStats stats;

  [[nodiscard]] bool reached(cdfg::NodeId n) const {
    return domain.mark[n.value()] != 0;
  }
};

/// Marks everything reachable from `seeds` in direction `dir` over `mask`
/// (seeds themselves included).
[[nodiscard]] Reachability computeReachability(
    const cdfg::CsrView& v, const std::vector<cdfg::NodeId>& seeds,
    Direction dir, const EdgeMask& mask = EdgeMask::dataControl());

/// True when a path `from` -> `to` exists over the masked edges that does
/// not use edge `skip`.  Per-query DFS: the closure fallback for graphs
/// above kClosureNodeLimit, and the redundancy oracle the closure-based
/// fast path is validated against.
[[nodiscard]] bool hasPathSkipping(
    const cdfg::CsrView& v, cdfg::NodeId from, cdfg::NodeId to,
    cdfg::EdgeId skip = cdfg::EdgeId::invalid(),
    const EdgeMask& mask = EdgeMask::all());

}  // namespace locwm::check
