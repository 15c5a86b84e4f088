// Schedule-enumeration tests: exact counts on graphs small enough to
// verify by hand, the Ψ pair semantics of Fig. 3, and the work bound.
#include <gtest/gtest.h>

#include <vector>

#include "sched/enumeration.h"
#include "sched/schedule.h"
#include "workloads/iir4.h"

namespace locwm::sched {
namespace {

using cdfg::Cdfg;
using cdfg::EdgeKind;
using cdfg::NodeId;
using cdfg::OpKind;

Cdfg independentOps(std::size_t n) {
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  for (std::size_t i = 0; i < n; ++i) {
    g.addEdge(in, g.addNode(OpKind::kAdd, "op" + std::to_string(i)));
  }
  return g;
}

TEST(Enumeration, SingleOpCountsDeadline) {
  const Cdfg g = independentOps(1);
  EnumerationOptions o;
  o.deadline = 5;
  EXPECT_EQ(countSchedules(g, o).count, 5u);  // steps 0..4
}

TEST(Enumeration, IndependentOpsMultiply) {
  const Cdfg g = independentOps(3);
  EnumerationOptions o;
  o.deadline = 4;
  EXPECT_EQ(countSchedules(g, o).count, 64u);  // 4^3
}

TEST(Enumeration, ChainCountsBinomially) {
  // A chain of 3 ops in 5 steps: C(5,3) = 10 strictly increasing triples.
  Cdfg g;
  NodeId prev = g.addNode(OpKind::kInput);
  for (int i = 0; i < 3; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd);
    g.addEdge(prev, v);
    prev = v;
  }
  EnumerationOptions o;
  o.deadline = 5;
  EXPECT_EQ(countSchedules(g, o).count, 10u);
}

TEST(Enumeration, TightDeadlineHasOneSchedule) {
  Cdfg g;
  NodeId prev = g.addNode(OpKind::kInput);
  for (int i = 0; i < 4; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd);
    g.addEdge(prev, v);
    prev = v;
  }
  EXPECT_EQ(countSchedules(g, {}).count, 1u);  // deadline = critical path
}

TEST(Enumeration, ExtraEdgeRestrictsCount) {
  const Cdfg g = independentOps(2);
  const NodeId a = g.findByName("op0");
  const NodeId b = g.findByName("op1");
  EnumerationOptions o;
  o.deadline = 4;
  const std::uint64_t all = countSchedules(g, o).count;
  EXPECT_EQ(all, 16u);
  EnumerationOptions oc = o;
  oc.extra_edges.push_back({a, b});
  // a before b strictly: C(4,2) = 6 ordered pairs.
  EXPECT_EQ(countSchedules(g, oc).count, 6u);
}

TEST(Enumeration, PsiPairSymmetry) {
  const Cdfg g = independentOps(2);
  const NodeId a = g.findByName("op0");
  const NodeId b = g.findByName("op1");
  EnumerationOptions o;
  o.deadline = 4;
  const PsiPair ab = countPsi(g, a, b, o);
  const PsiPair ba = countPsi(g, b, a, o);
  EXPECT_EQ(ab.without_edge.count, ba.without_edge.count);
  EXPECT_EQ(ab.with_edge.count, ba.with_edge.count);
  // ΨW(a→b) + ΨW(b→a) + ties == ΨN.
  EXPECT_EQ(ab.with_edge.count + ba.with_edge.count + 4, ab.without_edge.count);
}

TEST(Enumeration, ConflictingExtraEdgesYieldCycleError) {
  const Cdfg g = independentOps(2);
  const NodeId a = g.findByName("op0");
  const NodeId b = g.findByName("op1");
  EnumerationOptions o;
  o.deadline = 4;
  o.extra_edges = {{a, b}, {b, a}};
  EXPECT_THROW((void)countSchedules(g, o), ScheduleError);
}

TEST(Enumeration, ExtraEdgeOnPseudoOpRejected) {
  const Cdfg g = independentOps(2);
  EnumerationOptions o;
  o.deadline = 4;
  o.extra_edges = {{NodeId(0), g.findByName("op1")}};  // input node
  EXPECT_THROW((void)countSchedules(g, o), ScheduleError);
}

TEST(Enumeration, BudgetReportsInexact) {
  // A dense precedence mesh: every op of one layer of 4 before every op of
  // the next, so eliminating any op tabulates a scope of 4 neighbours.
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  std::vector<NodeId> layer;
  for (int i = 0; i < 4; ++i) {
    layer.push_back(g.addNode(OpKind::kAdd));
    g.addEdge(in, layer.back());
  }
  for (int i = 0; i < 4; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd);
    for (const NodeId u : layer) {
      g.addEdge(u, v);
    }
  }
  EnumerationOptions o;
  o.deadline = 8;
  o.max_steps = 100;
  const CountResult r = countSchedules(g, o);
  EXPECT_FALSE(r.exact);
}

TEST(Enumeration, VisitorSeesValidSchedules) {
  const Cdfg g = independentOps(2);
  EnumerationOptions o;
  o.deadline = 3;
  std::size_t seen = 0;
  enumerateSchedules(g, o, [&](const Schedule& s) {
    EXPECT_FALSE(validate(g, s, o.latency).has_value());
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 9u);
}

TEST(Enumeration, VisitorEarlyStop) {
  const Cdfg g = independentOps(3);
  EnumerationOptions o;
  o.deadline = 4;
  std::size_t seen = 0;
  enumerateSchedules(g, o, [&](const Schedule&) {
    return ++seen < 5;
  });
  EXPECT_EQ(seen, 5u);
}

TEST(Enumeration, HonorsExistingTemporalEdges) {
  Cdfg g = independentOps(2);
  g.addEdge(g.findByName("op0"), g.findByName("op1"), EdgeKind::kTemporal);
  EnumerationOptions with;
  with.deadline = 4;
  EnumerationOptions without = with;
  without.honor_temporal = false;
  EXPECT_EQ(countSchedules(g, with).count, 6u);
  EXPECT_EQ(countSchedules(g, without).count, 16u);
}

TEST(Enumeration, MotivationalExampleShape) {
  // Fig. 3's qualitative claim: adding the watermark's temporal edges cuts
  // the schedule count by an order of magnitude (166 -> 15 in the paper).
  const Cdfg g = workloads::iir4Parallel();
  EnumerationOptions o;
  const auto edges = workloads::fig3TemporalEdges(g);
  o.deadline = 7;  // critical path 5 + 2 slack
  const std::uint64_t base = countSchedules(g, o).count;
  EnumerationOptions oc = o;
  for (const auto& e : edges) {
    oc.extra_edges.push_back(e);
  }
  const std::uint64_t constrained = countSchedules(g, oc).count;
  EXPECT_GT(base, 10 * constrained);
  EXPECT_GT(constrained, 0u);
}

}  // namespace
}  // namespace locwm::sched
