// Unit tests for StructuralAnalysis and the canonical node ordering,
// including the ordering's relabel-invariance property that the whole
// detection scheme rests on.
#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/ordering.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "cdfg/subgraph.h"
#include "tests/ordering_oracle.h"
#include "workloads/iir4.h"

namespace locwm::cdfg {
namespace {

Cdfg chain(std::size_t n) {
  Cdfg g;
  NodeId prev = g.addNode(OpKind::kInput, "in");
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd, "a" + std::to_string(i));
    g.addEdge(prev, v);
    prev = v;
  }
  const NodeId out = g.addNode(OpKind::kOutput, "out");
  g.addEdge(prev, out);
  return g;
}

TEST(Analysis, LevelsOnChain) {
  const Cdfg g = chain(4);
  const StructuralAnalysis a(g);
  EXPECT_EQ(a.level(NodeId(0)), 0u);  // input is free
  EXPECT_EQ(a.level(NodeId(1)), 1u);
  EXPECT_EQ(a.level(NodeId(4)), 4u);
  EXPECT_EQ(a.level(NodeId(5)), 4u);  // output adds no length
  EXPECT_EQ(a.criticalPathLength(), 4u);
}

TEST(Analysis, HeightsMirrorLevels) {
  const Cdfg g = chain(4);
  const StructuralAnalysis a(g);
  EXPECT_EQ(a.height(NodeId(1)), 4u);
  EXPECT_EQ(a.height(NodeId(4)), 1u);
  EXPECT_EQ(a.height(NodeId(5)), 0u);
}

TEST(Analysis, LaxityAndSlack) {
  // in -> a -> b -> out   and   in -> c -> out  (short branch)
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  const NodeId a = g.addNode(OpKind::kAdd);
  const NodeId b = g.addNode(OpKind::kAdd);
  const NodeId c = g.addNode(OpKind::kAdd);
  const NodeId out = g.addNode(OpKind::kOutput);
  g.addEdge(in, a);
  g.addEdge(a, b);
  g.addEdge(b, out);
  g.addEdge(in, c);
  g.addEdge(c, out);
  const StructuralAnalysis an(g);
  EXPECT_EQ(an.criticalPathLength(), 2u);
  EXPECT_EQ(an.laxity(a), 2u);  // on the critical path
  EXPECT_EQ(an.laxity(b), 2u);
  EXPECT_EQ(an.laxity(c), 1u);  // short branch
  EXPECT_EQ(an.slack(c), 1u);
  EXPECT_EQ(an.slack(a), 0u);
}

TEST(Analysis, FaninTreeRespectsDistance) {
  const Cdfg g = chain(5);
  const StructuralAnalysis a(g);
  // From a4 (node id 5), distance 2: {a4, a3, a2}.
  EXPECT_EQ(a.faninTree(NodeId(5), 2).size(), 3u);
  EXPECT_EQ(a.transitiveFaninCount(NodeId(5), 2), 2u);
  // Unlimited distance reaches the input too.
  EXPECT_EQ(a.faninTree(NodeId(5), 10).size(), 6u);
}

TEST(Analysis, FunctionalitySignatureSorted) {
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  const NodeId m = g.addNode(OpKind::kMul);
  const NodeId a = g.addNode(OpKind::kAdd);
  const NodeId r = g.addNode(OpKind::kAdd);
  g.addEdge(in, m);
  g.addEdge(in, a);
  g.addEdge(m, r);
  g.addEdge(a, r);
  const StructuralAnalysis an(g);
  const auto sig = an.functionalitySignature(r, 1);
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_EQ(sig[0], functionalityId(OpKind::kAdd));
  EXPECT_EQ(sig[1], functionalityId(OpKind::kMul));
}

TEST(Analysis, TemporalEdgesExcluded) {
  Cdfg g = chain(3);
  // A temporal edge must not affect structural levels.
  g.addEdge(NodeId(1), NodeId(3), EdgeKind::kTemporal);
  const StructuralAnalysis a(g);
  EXPECT_EQ(a.level(NodeId(3)), 3u);
  EXPECT_EQ(a.criticalPathLength(), 3u);
}

TEST(Ordering, ChainFullyOrdered) {
  const Cdfg g = chain(6);
  const StructuralAnalysis a(g);
  const NodeOrdering ord = computeOrdering(a);
  EXPECT_TRUE(ord.unique);
  ASSERT_EQ(ord.ordered.size(), g.nodeCount());
}

TEST(Ordering, SymmetricSiblingsTie) {
  // Two structurally identical taps into the same adder must tie — they
  // are automorphic, so no canonical criterion may separate them.
  Cdfg g;
  const NodeId i1 = g.addNode(OpKind::kInput);
  const NodeId i2 = g.addNode(OpKind::kInput);
  const NodeId m1 = g.addNode(OpKind::kConstMul);
  const NodeId m2 = g.addNode(OpKind::kConstMul);
  const NodeId s = g.addNode(OpKind::kAdd);
  g.addEdge(i1, m1);
  g.addEdge(i2, m2);
  g.addEdge(m1, s);
  g.addEdge(m2, s);
  const StructuralAnalysis a(g);
  const NodeOrdering ord = computeOrdering(a, {m1, m2, s});
  EXPECT_FALSE(ord.unique);
  EXPECT_EQ(ord.ranks[0], ord.ranks[1]);  // the two taps tie
}

TEST(Ordering, FanoutDisambiguatesSiblings) {
  // Same as above, but m1 has a second consumer: the fanout-aware
  // refinement must now separate the taps (fanin-only C2/C3 cannot).
  Cdfg g;
  const NodeId i1 = g.addNode(OpKind::kInput);
  const NodeId i2 = g.addNode(OpKind::kInput);
  const NodeId m1 = g.addNode(OpKind::kConstMul);
  const NodeId m2 = g.addNode(OpKind::kConstMul);
  const NodeId s = g.addNode(OpKind::kAdd);
  const NodeId t = g.addNode(OpKind::kAdd);
  g.addEdge(i1, m1);
  g.addEdge(i2, m2);
  g.addEdge(m1, s);
  g.addEdge(m2, s);
  g.addEdge(m1, t);
  g.addEdge(s, t);
  const StructuralAnalysis a(g);
  const NodeOrdering ord = computeOrdering(a, {m1, m2, s, t});
  EXPECT_TRUE(ord.unique);
}

TEST(Analysis, ViewConstructorMatchesBuilderAndRejectsCycles) {
  RandomDfgOptions o;
  o.operations = 80;
  const Cdfg g = randomDfg(o, 9);
  const CsrView view(g);
  const StructuralAnalysis from_view(view);
  const StructuralAnalysis from_builder(g);
  EXPECT_EQ(&from_view.csr(), &view);
  EXPECT_EQ(from_view.criticalPathLength(), from_builder.criticalPathLength());
  for (const NodeId v : g.allNodes()) {
    EXPECT_EQ(from_view.level(v), from_builder.level(v));
    EXPECT_EQ(from_view.height(v), from_builder.height(v));
  }

  // a -> b -> c -> a over data edges, plus a temporal edge the analysis
  // ignores: the Kahn pass cannot finish and reports the cycle.
  const std::vector<OpKind> kinds(3, OpKind::kAdd);
  const std::vector<Edge> cycle = {{NodeId(0), NodeId(1), EdgeKind::kData},
                                   {NodeId(1), NodeId(2), EdgeKind::kData},
                                   {NodeId(2), NodeId(0), EdgeKind::kData}};
  const CsrView cyclic(kinds, cycle);
  EXPECT_THROW(StructuralAnalysis{cyclic}, GraphError);
  const std::vector<Edge> temporal_only = {
      {NodeId(0), NodeId(1), EdgeKind::kData},
      {NodeId(1), NodeId(0), EdgeKind::kTemporal}};
  const CsrView acyclic(kinds, temporal_only);
  EXPECT_EQ(StructuralAnalysis(acyclic).level(NodeId(1)), 2u);
}

TEST(Ordering, RanksAreRelabelInvariant) {
  // THE key property: on a permuted copy of the graph, every uniquely
  // ranked node must receive the same rank as its counterpart.
  const Cdfg g = workloads::iir4Parallel();
  std::vector<std::uint32_t> perm(g.nodeCount());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::uint32_t>((i * 7 + 3) % perm.size());
  }
  NodeMap map;
  const Cdfg r = relabel(g, perm, &map);

  const StructuralAnalysis ga(g);
  const StructuralAnalysis ra(r);
  const NodeOrdering gord = computeOrdering(ga);
  const NodeOrdering rord = computeOrdering(ra);

  // rank by node for both graphs.
  std::vector<std::uint32_t> grank(g.nodeCount()), rrank(r.nodeCount());
  std::vector<bool> gtied(g.nodeCount()), rtied(r.nodeCount());
  auto fill = [](const NodeOrdering& o, std::vector<std::uint32_t>& rank,
                 std::vector<bool>& tied) {
    for (std::size_t i = 0; i < o.ordered.size(); ++i) {
      rank[o.ordered[i].value()] = o.ranks[i];
      const bool t = (i > 0 && o.ranks[i] == o.ranks[i - 1]) ||
                     (i + 1 < o.ranks.size() && o.ranks[i] == o.ranks[i + 1]);
      tied[o.ordered[i].value()] = t;
    }
  };
  fill(gord, grank, gtied);
  fill(rord, rrank, rtied);

  for (const NodeId v : g.allNodes()) {
    const NodeId w = map.at(v);
    EXPECT_EQ(gtied[v.value()], rtied[w.value()]);
    if (!gtied[v.value()]) {
      EXPECT_EQ(grank[v.value()], rrank[w.value()]) << v.value();
    }
  }
}

TEST(Ordering, RandomGraphsMostlyUnique) {
  // Random irregular DFGs should be fully ordered almost always; at
  // minimum the ordering must be deterministic and well-formed.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomDfgOptions o;
    o.operations = 60;
    const Cdfg g = randomDfg(o, seed);
    const StructuralAnalysis a(g);
    const NodeOrdering ord = computeOrdering(a);
    EXPECT_EQ(ord.ordered.size(), g.nodeCount());
    // ranks ascend along the ordered output.
    for (std::size_t i = 1; i < ord.ranks.size(); ++i) {
      EXPECT_LE(ord.ranks[i - 1], ord.ranks[i]);
    }
  }
}

/// A random DAG over a small kind alphabet, so structural ties are
/// common: edges run from lower to higher id, parallel edges are drawn on
/// purpose and about one in six edges is control or temporal.  A
/// temporal edge may repeat an existing pair only by chance, so that case
/// is skipped rather than drawn.
Cdfg randomTieDag(SplitMix64& rng, std::size_t n) {
  static constexpr OpKind kKinds[] = {OpKind::kInput, OpKind::kAdd,
                                      OpKind::kAdd,   OpKind::kMul,
                                      OpKind::kConst, OpKind::kOutput};
  Cdfg g;
  for (std::size_t i = 0; i < n; ++i) {
    g.addNode(kKinds[rng.below(std::size(kKinds))]);
  }
  const std::size_t edges = n == 0 ? 0 : rng.below(2 * n + 1);
  for (std::size_t e = 0; e < edges && n > 1; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.below(n - 1));
    const auto b = static_cast<std::uint32_t>(a + 1 + rng.below(n - 1 - a));
    const std::uint64_t k = rng.below(12);
    const EdgeKind kind = k == 0   ? EdgeKind::kControl
                          : k == 1 ? EdgeKind::kTemporal
                                   : EdgeKind::kData;
    // The builder refuses a duplicate temporal edge.
    const std::size_t copies =
        kind != EdgeKind::kTemporal && rng.below(4) == 0 ? 2 : 1;
    if (kind == EdgeKind::kTemporal &&
        g.hasEdge(NodeId(a), NodeId(b), EdgeKind::kTemporal)) {
      continue;
    }
    for (std::size_t c = 0; c < copies; ++c) {
      g.addEdge(NodeId(a), NodeId(b), kind);
    }
  }
  return g;
}

TEST(Ordering, MatchesGlobalRefinementOracleOnRandomDags) {
  // The class-local refinement must reproduce the global key-sorting
  // refinement exactly: same order, same dense ranks, same uniqueness
  // verdict and the same number of rounds, on whole graphs and on node
  // subsets, under every depth bound.
  SplitMix64 rng(0x0DE5);
  std::size_t tied = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Cdfg g = randomTieDag(rng, rng.below(48));
    std::vector<NodeId> subset;
    for (const NodeId v : g.allNodes()) {
      if (trial % 2 == 0 || rng.below(3) != 0) {
        subset.push_back(v);
      }
    }
    // Subsets arrive in arbitrary order.
    for (std::size_t i = subset.size(); i > 1; --i) {
      std::swap(subset[i - 1], subset[rng.below(i)]);
    }
    const StructuralAnalysis a(g);
    for (const std::uint32_t depth : {0u, 1u, 2u, 3u, 64u}) {
      const NodeOrdering want = testing::referenceOrdering(g, subset, depth);
      const NodeOrdering got = computeOrdering(a, subset, depth);
      ASSERT_EQ(got.ordered, want.ordered) << "trial " << trial;
      ASSERT_EQ(got.ranks, want.ranks) << "trial " << trial;
      ASSERT_EQ(got.unique, want.unique) << "trial " << trial;
      ASSERT_EQ(got.max_depth_used, want.max_depth_used) << "trial " << trial;
      tied += want.unique ? 0 : 1;
    }
    const NodeOrdering all = computeOrdering(a);
    ASSERT_EQ(all.ranks, testing::referenceOrdering(g, g.allNodes()).ranks);
  }
  EXPECT_GT(tied, 100u);  // the generator does exercise unresolved ties
}

}  // namespace
}  // namespace locwm::cdfg
