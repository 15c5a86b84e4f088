// Root-screen soundness oracle.  scanShapeMatches skips every root that
// fails the kind-count screen documented in core/locality.h before
// deriving.  These tests hold an unscreened reference scan — derive plus
// shapeEquals at every candidate root of the anchor kind — and require
// identical hits from scanShapeMatches at 1, 2 and 8 threads, for
// scheduling, register-binding and rooted template certificates under
// several keys.  The suspects are random designs whose data edges are
// split by copy chains (copy-transparent walks are where a count screen
// could go wrong) and MediaBench mpeg2 carrying four authors' marks.  The
// RootScreen suite also runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/error.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "core/locality.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "sched/list_scheduler.h"
#include "sched/timeframes.h"
#include "tm/template.h"
#include "workloads/mediabench.h"

namespace locwm::wm {
namespace {

using cdfg::Cdfg;
using cdfg::EdgeKind;
using cdfg::NodeId;
using cdfg::OpKind;

/// What a shape scan needs from a certificate of any kind.  The anchor
/// rank (sched/reg record it) only narrows the reference scan.
struct ScanCert {
  std::string label;
  crypto::AuthorSignature signature;
  std::string context;
  LocalityParams params;
  Cdfg shape;
  std::optional<std::uint32_t> anchor_rank;
};

/// (root, matched nodes) per hit, as plain values for EXPECT_EQ.
using HitList = std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>;

HitList hitList(const std::vector<ShapeHit>& hits) {
  HitList out;
  for (const ShapeHit& h : hits) {
    std::vector<std::uint32_t> nodes;
    for (const NodeId v : h.nodes) {
      nodes.push_back(v.value());
    }
    out.emplace_back(h.root.value(), std::move(nodes));
  }
  return out;
}

/// The unscreened reference: every candidate root of the anchor kind (any
/// kind without an anchor) is derived and compared.  Roots are derived in
/// parallel into per-root slots; hits are read back in root order.
HitList referenceScan(const LocalityDeriver& deriver, const ScanCert& cert) {
  const std::vector<NodeId> roots = deriver.candidateRoots();
  std::vector<std::optional<ShapeHit>> slots(roots.size());
  rt::parallel_for(0, roots.size(), /*grain=*/1, [&](std::size_t i) {
    if (cert.anchor_rank.has_value() &&
        deriver.csr().kind(roots[i]) !=
            cert.shape.node(NodeId(*cert.anchor_rank)).kind) {
      return;
    }
    crypto::KeyedBitstream bits(cert.signature, cert.context + "/carve");
    const std::optional<Locality> loc =
        deriver.derive(roots[i], cert.params, bits);
    if (loc && shapeEquals(loc->shape, cert.shape)) {
      slots[i] = ShapeHit{roots[i], loc->nodes};
    }
  });
  std::vector<ShapeHit> hits;
  for (std::optional<ShapeHit>& slot : slots) {
    if (slot.has_value()) {
      hits.push_back(std::move(*slot));
    }
  }
  return hitList(hits);
}

/// Compares the screened scan with the reference for every certificate
/// at 1, 2 and 8 threads; returns the total number of reference hits so
/// callers can require the oracle to be non-vacuous.
std::size_t expectScreenMatchesReference(const Cdfg& suspect,
                                         const std::vector<ScanCert>& certs) {
  const LocalityDeriver deriver(suspect);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  std::size_t reference_hits = 0;
  for (const ScanCert& cert : certs) {
    rt::setThreadCount(0);
    const HitList want = referenceScan(deriver, cert);
    reference_hits += want.size();
    for (const std::size_t threads : {1u, 2u, 8u}) {
      rt::setThreadCount(threads);
      const HitList got = hitList(
          scanShapeMatches(deriver, cert.signature, cert.context, cert.params,
                           cert.shape, roots));
      EXPECT_EQ(got, want) << cert.label << " threads=" << threads;
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
  return reference_hits;
}

/// Rebuilds `g` with `count` random data edges split by copies; an edge
/// drawn twice becomes a chain of two copies.  Deterministic in `seed`.
Cdfg splitEdgesWithCopyChains(const Cdfg& g, std::size_t count,
                              std::uint64_t seed) {
  cdfg::SplitMix64 rng(seed);
  std::vector<std::uint32_t> copies_on(g.edgeTableSize(), 0);
  std::vector<std::uint32_t> data_edges;
  for (const cdfg::EdgeId e : g.allEdges()) {
    if (g.edge(e).kind == EdgeKind::kData) {
      data_edges.push_back(e.value());
    }
  }
  for (std::size_t i = 0; i < count && !data_edges.empty(); ++i) {
    copies_on[data_edges[rng.below(data_edges.size())]] += 1;
  }
  Cdfg out;
  for (const NodeId v : g.allNodes()) {
    out.addNode(g.node(v).kind, g.node(v).name);
  }
  for (const cdfg::EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    NodeId src = ed.src;
    for (std::uint32_t c = 0; c < copies_on[e.value()]; ++c) {
      const NodeId mov = out.addNode(OpKind::kCopy);
      out.addEdge(src, mov, EdgeKind::kData);
      src = mov;
    }
    out.addEdge(src, ed.dst, copies_on[e.value()] > 0 ? EdgeKind::kData
                                                      : ed.kind);
  }
  return out;
}

std::vector<crypto::AuthorSignature> authors(std::size_t count) {
  std::vector<crypto::AuthorSignature> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({"author-" + std::to_string(i), "root-screen"});
  }
  return out;
}

/// Embeds `marks` scheduling marks per author into `g` (temporal edges
/// accumulate) and returns their certificates.
std::vector<ScanCert> embedSchedMarks(
    Cdfg& g, const std::vector<crypto::AuthorSignature>& signatures,
    std::size_t marks) {
  SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.deadline =
      sched::TimeFrames(g, params.latency).criticalPathSteps() + 3;
  std::vector<ScanCert> certs;
  for (const crypto::AuthorSignature& sig : signatures) {
    const SchedulingWatermarker marker(sig);
    for (std::size_t i = 0; i < marks; ++i) {
      const std::optional<SchedEmbedResult> r = marker.embed(g, params, i);
      if (r.has_value()) {
        const WatermarkCertificate& c = r->certificate;
        certs.push_back({"sched " + sig.identity + " " + c.context, sig,
                         c.context, c.locality_params, c.shape, c.root_rank});
      }
    }
  }
  return certs;
}

std::vector<ScanCert> embedRegMarks(
    const Cdfg& g, const std::vector<crypto::AuthorSignature>& signatures,
    std::size_t marks) {
  const sched::Schedule s = sched::listSchedule(g);
  RegWmParams params;
  params.locality.min_size = 4;
  std::vector<ScanCert> certs;
  for (const crypto::AuthorSignature& sig : signatures) {
    const RegisterWatermarker marker(sig);
    for (std::size_t i = 0; i < marks; ++i) {
      const std::optional<RegEmbedResult> r = marker.embed(g, s, params, i);
      if (r.has_value()) {
        const RegCertificate& c = r->certificate;
        certs.push_back({"reg " + sig.identity + " " + c.context, sig,
                         c.context, c.locality_params, c.shape, c.root_rank});
      }
    }
  }
  return certs;
}

std::vector<ScanCert> embedRootedTmMarks(
    const Cdfg& g, const std::vector<crypto::AuthorSignature>& signatures,
    std::size_t marks) {
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  TmWmParams params;
  params.locality.min_size = 4;
  params.beta = 0.0;
  params.z_explicit = 1;
  std::vector<ScanCert> certs;
  for (const crypto::AuthorSignature& sig : signatures) {
    const TemplateWatermarker marker(sig, lib);
    for (std::size_t i = 0; i < marks; ++i) {
      const std::optional<TmEmbedResult> r = marker.embed(g, params, i);
      if (r.has_value()) {
        const TmCertificate& c = r->certificate;
        certs.push_back({"tm " + sig.identity + " " + c.context, sig,
                         c.context, c.locality_params, c.shape,
                         std::nullopt});
      }
    }
  }
  return certs;
}

TEST(RootScreen, RandomDesignsWithCopyChains) {
  std::size_t sched_certs = 0;
  std::size_t reg_certs = 0;
  std::size_t tm_certs = 0;
  std::size_t reference_hits = 0;
  for (const std::uint64_t seed : {3u, 21u, 77u}) {
    cdfg::RandomDfgOptions options;
    options.operations = 90;
    options.width = 10;
    const Cdfg original = cdfg::randomDfg(options, seed);
    const std::vector<crypto::AuthorSignature> sigs = authors(3);

    Cdfg marked = original;
    std::vector<ScanCert> certs = embedSchedMarks(marked, sigs, 2);
    sched_certs += certs.size();
    const std::vector<ScanCert> reg = embedRegMarks(original, sigs, 2);
    const std::vector<ScanCert> tmc = embedRootedTmMarks(original, sigs, 2);
    reg_certs += reg.size();
    tm_certs += tmc.size();
    certs.insert(certs.end(), reg.begin(), reg.end());
    certs.insert(certs.end(), tmc.begin(), tmc.end());

    // Published (temporal edges stripped), then copy-split: every genuine
    // match survives, but the suspect's fanin walks now cross copies.
    const Cdfg suspect = splitEdgesWithCopyChains(
        marked.stripTemporalEdges(), options.operations / 2, seed + 1);
    reference_hits += expectScreenMatchesReference(suspect, certs);
    // An unrelated design: the reference finds (almost) nothing, and the
    // screened scan must agree exactly.
    const Cdfg stranger = splitEdgesWithCopyChains(
        cdfg::randomDfg(options, seed + 1000), options.operations / 3, seed);
    reference_hits += expectScreenMatchesReference(stranger, certs);
  }
  EXPECT_GT(sched_certs, 0u);
  EXPECT_GT(reg_certs, 0u);
  EXPECT_GT(tm_certs, 0u);
  EXPECT_GE(reference_hits, sched_certs + reg_certs + tm_certs)
      << "every certificate matches its own copy-split design";
}

TEST(RootScreen, Mpeg2FourAuthors) {
  workloads::MediaBenchProfile mpeg2;
  for (const workloads::MediaBenchProfile& p :
       workloads::mediaBenchProfiles()) {
    if (p.name == "mpeg2") {
      mpeg2 = p;
    }
  }
  ASSERT_EQ(mpeg2.name, "mpeg2");
  const Cdfg original = workloads::buildMediaBench(mpeg2);
  Cdfg marked = original;
  const std::vector<ScanCert> certs = embedSchedMarks(marked, authors(4), 1);
  ASSERT_EQ(certs.size(), 4u);
  const std::size_t hits =
      expectScreenMatchesReference(marked.stripTemporalEdges(), certs);
  EXPECT_GE(hits, certs.size());
}

TEST(RootScreen, HugeMaxDistanceScreensLikeTheDesignDepth) {
  // A certificate may carry any max_distance.  On a design shallower than
  // 6 levels every fanin ball of radius 6 is already the whole cone, so
  // max_distance = UINT32_MAX must give exactly the hits of 6 — and the
  // level walks must stop with the cone instead of counting to 2^32.
  cdfg::RandomDfgOptions options;
  options.operations = 36;
  options.width = 12;
  const Cdfg original = cdfg::randomDfg(options, 5);
  const std::vector<crypto::AuthorSignature> sigs = authors(3);
  Cdfg marked = original;
  std::vector<ScanCert> certs = embedSchedMarks(marked, sigs, 2);
  const std::vector<ScanCert> tmc = embedRootedTmMarks(original, sigs, 2);
  certs.insert(certs.end(), tmc.begin(), tmc.end());
  ASSERT_FALSE(tmc.empty());
  ASSERT_GT(certs.size(), tmc.size());

  const Cdfg suspect = marked.stripTemporalEdges();
  const LocalityDeriver deriver(suspect);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  std::vector<ScanCert> huge = certs;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < certs.size(); ++i) {
    ASSERT_EQ(certs[i].params.max_distance, 6u) << certs[i].label;
    huge[i].params.max_distance = UINT32_MAX;
    const HitList at6 = hitList(
        scanShapeMatches(deriver, certs[i].signature, certs[i].context,
                         certs[i].params, certs[i].shape, roots));
    const HitList at_max = hitList(
        scanShapeMatches(deriver, huge[i].signature, huge[i].context,
                         huge[i].params, huge[i].shape, roots));
    EXPECT_EQ(at_max, at6) << certs[i].label;
    hits += at6.size();
  }
  EXPECT_GE(hits, certs.size()) << "every certificate matches its design";
  expectScreenMatchesReference(suspect, huge);
}

TEST(RootScreen, ShapeWithoutUniqueSinkMatchesNowhere) {
  cdfg::RandomDfgOptions options;
  options.operations = 40;
  Cdfg g = cdfg::randomDfg(options, 11);
  std::vector<ScanCert> certs = embedSchedMarks(g, authors(1), 1);
  ASSERT_EQ(certs.size(), 1u);
  // A second sink: no derived shape has two.
  certs[0].shape.addNode(OpKind::kAdd);
  const LocalityDeriver deriver(g.stripTemporalEdges());
  EXPECT_TRUE(scanShapeMatches(deriver, certs[0].signature, certs[0].context,
                               certs[0].params, certs[0].shape,
                               deriver.candidateRoots())
                  .empty());
  expectScreenMatchesReference(g.stripTemporalEdges(), certs);
}

TEST(RootScreen, LevelCountsStopWhenTheBallStopsGrowing) {
  Cdfg shape;
  const NodeId a = shape.addNode(OpKind::kAdd);
  const NodeId b = shape.addNode(OpKind::kMul);
  shape.addEdge(a, b);
  const std::vector<KindCounts> layers = anchorKindCounts(shape, 1, 2);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0][static_cast<std::size_t>(OpKind::kAdd)], 0u);
  EXPECT_EQ(layers[1][static_cast<std::size_t>(OpKind::kAdd)], 1u);
  EXPECT_EQ(anchorKindCounts(shape, 1, UINT32_MAX), layers);
  EXPECT_EQ(anchorKindCounts(shape, 0, UINT32_MAX).size(), 2u);
  EXPECT_THROW(static_cast<void>(anchorKindCounts(shape, 2, 1)), Error);

  const LocalityDeriver deriver(shape);
  EXPECT_EQ(deriver.faninKindCounts(b, UINT32_MAX), layers);
  EXPECT_EQ(deriver.faninKindCounts(b, 1).back(), layers[1]);
}

#if LOCWM_OBS_ENABLED
TEST(RootScreen, ScreenedRootsCounterIsATotal) {
  // Every scanned root is either screened out or derived, and the split
  // is the same at any thread count.
  cdfg::RandomDfgOptions options;
  options.operations = 120;
  Cdfg g = cdfg::randomDfg(options, 9);
  const std::vector<ScanCert> certs = embedSchedMarks(g, authors(2), 2);
  ASSERT_FALSE(certs.empty());
  const LocalityDeriver deriver(g);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  obs::setEnabled(true);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  std::optional<std::uint64_t> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    rt::setThreadCount(threads);
    const std::uint64_t screened0 =
        reg.counter("core.locality.screened_roots").value();
    const std::uint64_t derived0 =
        reg.counter("core.locality.derive_calls").value();
    for (const ScanCert& cert : certs) {
      static_cast<void>(scanShapeMatches(deriver, cert.signature,
                                         cert.context, cert.params,
                                         cert.shape, roots));
    }
    const std::uint64_t screened =
        reg.counter("core.locality.screened_roots").value() - screened0;
    const std::uint64_t derived =
        reg.counter("core.locality.derive_calls").value() - derived0;
    EXPECT_EQ(screened + derived, roots.size() * certs.size());
    EXPECT_GT(screened, 0u);
    if (reference.has_value()) {
      EXPECT_EQ(screened, *reference) << "threads=" << threads;
    }
    reference = screened;
  }
  rt::setThreadCount(0);
  obs::setEnabled(false);
}
#endif  // LOCWM_OBS_ENABLED

}  // namespace
}  // namespace locwm::wm
