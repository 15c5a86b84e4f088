// Locality fingerprints — the corpus scan's sound pre-filter.
//
// The screen encodes the kind counts of the sound root screen documented
// at wm::scanShapeMatches (core/locality.h), which also holds its
// soundness argument: a matching root's fanin ball of radius max_distance
// covers the shape's kind counts, and its radius-1 fanin covers the
// anchor's.  The ball grows monotonically with radius, so one design-side
// radius R = max(max_distance over the key ring) is sound for every
// certificate.
//
// Histograms are encoded as saturating threshold bits (6 per kind:
// count >= 1, 2, 3, 4, 6, 8), making "can nest inside" one O(1) bitwise
// subset test per pair.  The encoding is monotone — bigger counts only set more
// bits — which yields two sound aggregates for free:
//
//  * per root kind, OR-ing root fingerprints equals the encoding of the
//    component-wise max histogram, giving a design-level screen per
//    (certificate, root kind) before any per-root work;
//  * whole-design (tm) certificates screen against the design's real-op
//    histogram, the superset wholeDesign() selects from.
//
// The pre-filter can therefore never drop a true match (proven by the
// CorpusScan oracle tests); its payoff is precision.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/operation.h"
#include "core/locality.h"

namespace locwm::scan {

/// Saturating threshold encoding of an operation-kind histogram:
/// bit (kind*6 + t) is set iff count(kind) >= {1, 2, 3, 4, 6, 8}[t].  With
/// kOpKindCount kinds this needs kOpKindCount*6 bits, packed little-end
/// first into two 64-bit words.
struct KindFingerprint {
  std::array<std::uint64_t, 2> bits{};

  /// True when every set bit of `needle` is set here — i.e. the histogram
  /// `needle` encodes *can* nest component-wise inside this one.  The
  /// encoding is lossy above the top threshold, so this is necessary, not
  /// sufficient: exactly the one-sided error a sound pre-filter needs.
  [[nodiscard]] bool covers(const KindFingerprint& needle) const noexcept {
    return (needle.bits[0] & ~bits[0]) == 0 &&
           (needle.bits[1] & ~bits[1]) == 0;
  }

  /// Bitwise OR — the encoding of the component-wise max histogram.
  void merge(const KindFingerprint& other) noexcept {
    bits[0] |= other.bits[0];
    bits[1] |= other.bits[1];
  }

  [[nodiscard]] bool operator==(const KindFingerprint& other) const noexcept {
    return bits == other.bits;
  }
};

static_assert(cdfg::kOpKindCount * 6 <= 128,
              "KindFingerprint packs 6 threshold bits per op kind into two "
              "64-bit words");

/// Threshold-bit encoding of a kind histogram.
[[nodiscard]] KindFingerprint fingerprintOfCounts(
    const std::array<std::uint32_t, cdfg::kOpKindCount>& counts) noexcept;

/// Fingerprint of a certificate shape (node-kind histogram; every shape
/// node is a real operation by construction).
[[nodiscard]] KindFingerprint shapeFingerprint(const cdfg::Cdfg& shape);

/// Per-design fingerprint index: one fanin-ball fingerprint per candidate
/// root plus the two aggregates described in the file comment.  Built once
/// per design at the ring-wide radius and reused for every certificate.
struct DesignIndex {
  /// Radius the root fingerprints were computed at.  Sound for every
  /// certificate with locality max_distance <= radius.
  std::uint32_t radius = 0;
  /// candidateRoots() of the design, ascending.
  std::vector<cdfg::NodeId> roots;
  /// Operation kind per root (dense enum value), aligned with `roots`.
  std::vector<std::uint8_t> root_kinds;
  /// Directed fanin-ball fingerprint per root, aligned with `roots`.
  std::vector<KindFingerprint> root_fps;
  /// Radius-1 ball fingerprint per root (the root and its copy-transparent
  /// direct real predecessors).  A certificate that records its anchor's
  /// rank knows the shape root's direct predecessors, and every one of
  /// them is a direct real predecessor of a matching design root — so
  /// this screens far more sharply than the full-radius ball.
  std::vector<KindFingerprint> root_fps1;
  /// OR of root_fps grouped by root kind — the design-level screen.
  std::array<KindFingerprint, cdfg::kOpKindCount> kind_union{};
  /// Fingerprint of every real operation — the whole-design screen.
  KindFingerprint design_fp;

  [[nodiscard]] bool operator==(const DesignIndex& other) const = default;
};

/// Builds the index from a lowered design.  Per-root fingerprints are
/// computed in parallel on the rt pool (each slot is an independent pure
/// function of the graph), so the result is thread-count invariant.
[[nodiscard]] DesignIndex buildDesignIndex(const wm::LocalityDeriver& deriver,
                                           std::uint32_t radius);

/// Serializes an index for the scan fingerprint cache.  Line-oriented,
/// versioned; kind_union/design_fp are recomputed on load from the root
/// entries plus the stored design fingerprint.
[[nodiscard]] std::string indexToString(const DesignIndex& index);

/// Strict inverse of indexToString: anything unexpected — wrong header,
/// malformed line, trailing garbage — returns nullopt (a cache miss,
/// never a wrong answer).
[[nodiscard]] std::optional<DesignIndex> parseIndex(const std::string& text);

}  // namespace locwm::scan
