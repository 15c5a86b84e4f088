// Output pin for locality derivation.  The digests below were recorded
// from a build that contracted every identification context through the
// Cdfg builder and ordered it by a refinement that sorted every node's key
// globally each round; any rework of derive() or wholeDesign() must
// reproduce them byte for byte.  Each digest covers, per candidate root,
// the carved nodes and the printed shape, or "rejected".
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "core/locality.h"
#include "crypto/sha256.h"
#include "workloads/hyper.h"
#include "workloads/mediabench.h"

namespace locwm::wm {
namespace {

using cdfg::Cdfg;
using cdfg::EdgeKind;
using cdfg::NodeId;
using cdfg::OpKind;

Cdfg mpeg2() {
  for (const workloads::MediaBenchProfile& p :
       workloads::mediaBenchProfiles()) {
    if (p.name == "mpeg2") {
      return workloads::buildMediaBench(p);
    }
  }
  ADD_FAILURE() << "no mpeg2 profile";
  return {};
}

/// Rebuilds `g` with copies on its data edges: about one edge in eight
/// gets a single copy, one in eight a chain of two, and one in eight is
/// routed through a copy shared by every such edge of its source (a copy
/// with fanout, which turns parallel edges into parallel copy paths).
Cdfg splitWithCopies(const Cdfg& g, std::uint64_t seed) {
  cdfg::SplitMix64 rng(seed);
  Cdfg out;
  for (const NodeId v : g.allNodes()) {
    out.addNode(g.node(v).kind);
  }
  std::vector<NodeId> shared(g.nodeCount(), NodeId::invalid());
  for (const cdfg::EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    const std::uint64_t r = rng.below(8);
    if (ed.kind != EdgeKind::kData || r > 2) {
      out.addEdge(ed.src, ed.dst, ed.kind);
      continue;
    }
    NodeId from = ed.src;
    if (r == 2) {
      NodeId& c = shared[ed.src.value()];
      if (!c.isValid()) {
        c = out.addNode(OpKind::kCopy);
        out.addEdge(ed.src, c, EdgeKind::kData);
      }
      from = c;
    } else {
      for (std::uint64_t i = 0; i <= r; ++i) {
        const NodeId c = out.addNode(OpKind::kCopy);
        out.addEdge(from, c, EdgeKind::kData);
        from = c;
      }
    }
    out.addEdge(from, ed.dst, EdgeKind::kData);
  }
  return out;
}

void printLocality(std::ostream& os, const std::optional<Locality>& loc) {
  if (!loc.has_value()) {
    os << "rejected\n";
    return;
  }
  for (const NodeId v : loc->nodes) {
    os << v.value() << ' ';
  }
  os << '\n';
  cdfg::print(os, loc->shape);
}

/// SHA-256 of derive() at every candidate root of `g`, each root with a
/// fresh carve stream, as the detectors replay it.
std::string deriveDigest(const Cdfg& g, std::size_t* accepted) {
  const LocalityDeriver deriver(g);
  LocalityParams params;
  params.min_size = 4;
  const crypto::AuthorSignature sig{"pin", "derive"};
  std::ostringstream os;
  *accepted = 0;
  for (const NodeId root : deriver.candidateRoots()) {
    crypto::KeyedBitstream bits(sig, "sched-wm/0/carve");
    const std::optional<Locality> loc = deriver.derive(root, params, bits);
    *accepted += loc.has_value() ? 1u : 0u;
    os << "root " << root.value() << '\n';
    printLocality(os, loc);
  }
  return crypto::toHex(crypto::Sha256::hash(os.str()));
}

TEST(DerivePin, EveryRootOfMpeg2) {
  std::size_t accepted = 0;
  EXPECT_EQ(deriveDigest(mpeg2(), &accepted),
            "cbc1e32342253a0d677affe280a4bdb1be8deeb7b41c95b2904fcfdbfd3c005b");
  EXPECT_EQ(accepted, 2668u);
}

TEST(DerivePin, EveryRootOfCopySplitMpeg2) {
  std::size_t accepted = 0;
  EXPECT_EQ(deriveDigest(splitWithCopies(mpeg2(), 7), &accepted),
            "821de8ca38a2d53c3319ef31c4fdac8985a8da3fc5af02dc89f8da2d278ee1a9");
  EXPECT_EQ(accepted, 2668u);
}

TEST(DerivePin, WholeDesignOfDct8) {
  const std::optional<Locality> loc =
      LocalityDeriver(workloads::dct8()).wholeDesign();
  ASSERT_TRUE(loc.has_value());
  std::ostringstream os;
  printLocality(os, loc);
  EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(os.str())),
            "1371ad1c87822188eda22c605beb3487b98cc25c9e8cf3c13ce7797c6b3d6ea5");
}

// Copy transparency: the split design identifies exactly as the original.
TEST(DerivePin, WholeDesignOfCopySplitDct8) {
  const std::optional<Locality> loc =
      LocalityDeriver(splitWithCopies(workloads::dct8(), 3)).wholeDesign();
  ASSERT_TRUE(loc.has_value());
  std::ostringstream os;
  printLocality(os, loc);
  EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(os.str())),
            "1371ad1c87822188eda22c605beb3487b98cc25c9e8cf3c13ce7797c6b3d6ea5");
}

}  // namespace
}  // namespace locwm::wm
