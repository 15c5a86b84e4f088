// Local watermarking of operation-scheduling solutions (§IV-A).
//
// Embedding augments a signature-selected locality with K temporal edges
// between operations that have overlapping ASAP/ALAP lifetimes and enough
// laxity; any off-the-shelf scheduler run afterwards produces a schedule
// that satisfies them.  The author keeps a WatermarkCertificate — the
// locality's structural fingerprint plus the constraints as canonical-rank
// pairs.  Detection scans a suspect design for a root whose re-derived
// locality matches the certificate and checks the suspect *schedule*
// honours every constraint; the temporal edges themselves are stripped
// from the published design (Fig. 1) and never travel with it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "core/locality.h"
#include "crypto/bitstream.h"
#include "sched/latency.h"
#include "sched/schedule.h"
#include "sched/timeframes.h"

namespace locwm::wm {

/// Embedding parameters of the scheduling watermark.
struct SchedWmParams {
  LocalityParams locality;
  /// Laxity bound α: only nodes with laxity ≤ C·(1−α) are eligible (§IV-A);
  /// keeps constraints off the critical path.  Implemented deadline-
  /// relative: mobility(n) ≥ α·deadline, which coincides with the paper's
  /// criterion when deadline == C and generalizes it when slack is granted.
  double alpha = 0.2;
  /// Number of temporal edges K as a fraction of |T'| (Table I uses
  /// K = 0.2·τ).  Overridden by `k_explicit` when set.
  double k_fraction = 0.2;
  std::optional<std::size_t> k_explicit;
  /// Minimum eligible-set size τ'; smaller localities are re-selected.
  std::size_t min_eligible = 4;
  /// How many roots to try before giving up.
  std::size_t max_root_retries = 128;
  /// Scheduling deadline (control steps) the marked design must still meet;
  /// nullopt = critical path of the *original* design (zero-slack budget is
  /// usually too tight to embed into — give at least a step or two).
  std::optional<std::uint32_t> deadline;
  sched::LatencyModel latency = sched::LatencyModel::unit();
};

/// One embedded constraint, as a pair of canonical ranks in the locality.
struct RankConstraint {
  std::uint32_t before_rank = 0;
  std::uint32_t after_rank = 0;
};

/// What the author memorizes per local watermark; sufficient (with the
/// signature) to detect the mark in any suspect design + schedule.
struct WatermarkCertificate {
  /// The bitstream context used ("sched-wm/<index>"), part of the replay.
  std::string context;
  LocalityParams locality_params;
  /// Structural fingerprint of the locality (node id == canonical rank).
  cdfg::Cdfg shape;
  /// Canonical rank of the locality's root within `shape` — lets the
  /// detector skip candidate roots of the wrong operation kind.
  std::uint32_t root_rank = 0;
  /// Temporal constraints: before_rank's op starts strictly before
  /// after_rank's op.
  std::vector<RankConstraint> constraints;
};

/// Result of embedding one local watermark.
struct SchedEmbedResult {
  WatermarkCertificate certificate;
  /// The locality in source-graph coordinates (diagnostics).
  Locality locality;
  /// Temporal edge ids added to the graph.
  std::vector<cdfg::EdgeId> added_edges;
  /// Roots tried before one was accepted.
  std::size_t roots_tried = 0;
};

/// Detection outcome for one certificate against one suspect.
struct SchedDetectResult {
  bool found = false;
  /// Root node (suspect coordinates) at which the locality matched.
  cdfg::NodeId root;
  /// Constraints satisfied by the suspect schedule / total constraints.
  std::size_t satisfied = 0;
  std::size_t total = 0;
  /// Candidate roots whose locality shape matched (usually 1).
  std::size_t shape_matches = 0;
};

/// Realizes every temporal edge of `marked` as a dummy unit operation —
/// the paper's Table I implementation: "temporal edges were induced using
/// additional operations with unit operators (e.g., additions with
/// variables assigned to zero at runtime)".  Each temporal edge (a → b)
/// becomes a dummy add `d` with data edges a → d → b; the temporal edges
/// themselves are dropped.  The result is an ordinary data-flow graph any
/// compiler back end schedules without knowing about watermarks.
/// `dummies`, when non-null, receives the inserted node ids (the paper
/// notes "the added instructions must be extracted from binaries for
/// security and performance reasons" — see stripRealizedDummies).
[[nodiscard]] cdfg::Cdfg realizeWithDummyOps(
    const cdfg::Cdfg& marked, std::vector<cdfg::NodeId>* dummies = nullptr);

/// Inverse of realizeWithDummyOps for shipping: removes the dummy
/// operations, reconnecting each dummy's producer directly to its
/// consumers.  The schedule of the remaining operations is untouched — it
/// still carries the watermark order.
[[nodiscard]] cdfg::Cdfg stripRealizedDummies(
    const cdfg::Cdfg& realized, const std::vector<cdfg::NodeId>& dummies);

/// The constraint encoding both scheduling embedders share (§IV-A).
/// Draws sources from `eligible` (ranks into `nodes`) in keyed order and
/// gives each a keyed partner whose lifetime overlaps the source's, that
/// can still follow it within the deadline, and that no existing path
/// orders against it.  Each pair becomes a temporal edge in `g` and a
/// constraint in `result`; `frames` (built over `g` with temporal edges
/// included) is re-timed after every edge.  Stops at `k` constraints or
/// when the pool is spent.
void encodeTemporalConstraints(cdfg::Cdfg& g, const sched::LatencyModel& lat,
                               sched::TimeFrames& frames,
                               const std::vector<cdfg::NodeId>& nodes,
                               const std::vector<std::uint32_t>& eligible,
                               std::size_t k, crypto::KeyedBitstream& bits,
                               SchedEmbedResult& result);

/// Embeds + detects scheduling watermarks for one author signature.
class SchedulingWatermarker {
 public:
  explicit SchedulingWatermarker(crypto::AuthorSignature signature)
      : signature_(std::move(signature)) {}

  /// Embeds one local watermark into `g` (adds temporal edges).  `index`
  /// selects an independent watermark stream so many marks can coexist.
  /// Returns nullopt when no acceptable locality exists under `params`.
  [[nodiscard]] std::optional<SchedEmbedResult> embed(
      cdfg::Cdfg& g, const SchedWmParams& params = {},
      std::size_t index = 0) const;

  /// Embeds up to `count` watermarks; returns the successful ones.
  [[nodiscard]] std::vector<SchedEmbedResult> embedMany(
      cdfg::Cdfg& g, std::size_t count,
      const SchedWmParams& params = {}) const;

  /// Scans `suspect` (a design WITHOUT temporal edges — they are stripped
  /// before publication) + its schedule for the certificate's watermark.
  /// `found` requires all constraints satisfied at a shape-matching root.
  [[nodiscard]] SchedDetectResult detect(
      const cdfg::Cdfg& suspect, const sched::Schedule& schedule,
      const WatermarkCertificate& certificate) const;

  [[nodiscard]] const crypto::AuthorSignature& signature() const noexcept {
    return signature_;
  }

 private:
  crypto::AuthorSignature signature_;
};

/// Precomputed detector for one (suspect design, certificate) pair.
///
/// The expensive part of detection — re-deriving the locality at every
/// candidate root — depends only on the suspect's *structure*, not on the
/// schedule under test.  When many schedules of the same suspect are
/// checked (tamper experiments, monitoring a stream of builds), construct
/// this once and call check() per schedule: each check is O(K).
class SchedDetector {
 public:
  SchedDetector(const SchedulingWatermarker& marker,
                const cdfg::Cdfg& suspect,
                const WatermarkCertificate& certificate);

  /// Scan variant for corpus drivers that lower the suspect once: reuses a
  /// caller-owned deriver and restricts the scan to `roots` (e.g. the
  /// survivors of a fingerprint pre-filter).  Behaviour is identical to
  /// the full constructor when `roots` contains every shape-matching root.
  /// The deriver and certificate must outlive the detector.
  SchedDetector(const crypto::AuthorSignature& signature,
                const LocalityDeriver& deriver,
                const WatermarkCertificate& certificate,
                const std::vector<cdfg::NodeId>& roots);

  /// Evaluates one schedule of the suspect against the certificate.
  [[nodiscard]] SchedDetectResult check(const sched::Schedule& s) const;

  /// Number of locality-shape matches found in the suspect.
  [[nodiscard]] std::size_t shapeMatches() const noexcept {
    return matches_.size();
  }

  /// The shape matches themselves (root + rank-ordered suspect nodes).
  [[nodiscard]] const std::vector<ShapeHit>& matches() const noexcept {
    return matches_;
  }

 private:
  std::vector<ShapeHit> matches_;
  const WatermarkCertificate* certificate_;
};

}  // namespace locwm::wm
