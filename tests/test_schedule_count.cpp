// Exact schedule counting by variable elimination, checked against the
// backtracking enumerator: random DFGs, windows and extra edges, pseudo-op
// and zero-latency sources, disconnected shapes, an mpeg2 locality the
// enumerator could not finish in its old budget, the table-size bound and
// its conditioning, the cell bound, 64-bit overflow, and thread-count
// determinism of the aggregate Pc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "cdfg/random_dfg.h"
#include "core/pc.h"
#include "core/sched_wm.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "sched/enumeration.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"
#include "workloads/mediabench.h"

namespace locwm::sched {
namespace {

using cdfg::Cdfg;
using cdfg::EdgeKind;
using cdfg::NodeId;
using cdfg::OpKind;

/// The oracle: the number of schedules enumerateSchedules visits.
std::uint64_t enumeratedCount(const Cdfg& g, const EnumerationOptions& o) {
  std::uint64_t n = 0;
  enumerateSchedules(g, o, [&](const Schedule&) {
    ++n;
    return true;
  });
  return n;
}

void expectAgreement(const Cdfg& g, const EnumerationOptions& o) {
  const CountResult r = countSchedules(g, o);
  ASSERT_TRUE(r.exact);
  EXPECT_EQ(r.count, enumeratedCount(g, o));
}

std::vector<NodeId> realOpsInTopoOrder(const Cdfg& g, const LatencyModel& lat) {
  std::vector<NodeId> ops;
  for (const NodeId v : g.topologicalOrder()) {
    if (lat.latency(g.node(v).kind) > 0) {
      ops.push_back(v);
    }
  }
  return ops;
}

Cdfg smallDfg(std::uint64_t seed) {
  cdfg::RandomDfgOptions opt;
  opt.operations = 7;
  opt.inputs = 3;
  opt.width = 3;
  return cdfg::randomDfg(opt, seed);
}

TEST(ScheduleCount, RandomDfgsAgreeWithEnumerator) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Cdfg g = smallDfg(seed);
    for (const LatencyModel& lat :
         {LatencyModel::unit(), LatencyModel::hyperDefault()}) {
      const std::uint32_t cp = TimeFrames(g, lat).criticalPathSteps();
      for (std::uint32_t slack = 0; slack <= 3; ++slack) {
        EnumerationOptions o;
        o.latency = lat;
        o.deadline = cp + slack;
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " slack "
                                          << slack);
        expectAgreement(g, o);
      }
    }
  }
}

TEST(ScheduleCount, RandomExtraEdgesAndWindowsAgreeWithEnumerator) {
  std::mt19937_64 rng(7);
  for (std::uint64_t seed = 20; seed < 36; ++seed) {
    const Cdfg g = smallDfg(seed);
    EnumerationOptions o;
    o.deadline = TimeFrames(g, o.latency).criticalPathSteps() + 2;
    const std::vector<NodeId> ops = realOpsInTopoOrder(g, o.latency);
    // Extra edges point forward in a topological order, so stay acyclic.
    for (int e = 0; e < 3; ++e) {
      const std::size_t a = rng() % ops.size();
      const std::size_t b = rng() % ops.size();
      if (a != b) {
        o.extra_edges.push_back({ops[std::min(a, b)], ops[std::max(a, b)]});
      }
    }
    for (int w = 0; w < 2; ++w) {
      const std::uint32_t lo = static_cast<std::uint32_t>(rng() % 3);
      const std::uint32_t hi = lo + 1 + static_cast<std::uint32_t>(rng() % 3);
      o.windows.push_back({ops[rng() % ops.size()], lo, hi});
    }
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expectAgreement(g, o);
  }
}

TEST(ScheduleCount, TemporalEdgesHonouredOrIgnored) {
  Cdfg g = smallDfg(3);
  const std::vector<NodeId> ops = realOpsInTopoOrder(g, LatencyModel::unit());
  g.addEdge(ops.front(), ops.back(), EdgeKind::kTemporal);
  g.addEdge(ops[1], ops[ops.size() - 2], EdgeKind::kTemporal);
  for (const bool honor : {true, false}) {
    EnumerationOptions o;
    o.honor_temporal = honor;
    o.deadline = TimeFrames(g, o.latency, std::nullopt, honor)
                     .criticalPathSteps() + 2;
    expectAgreement(g, o);
  }
}

TEST(ScheduleCount, PseudoOpAndZeroLatencySourcesAreDropped) {
  // in -> a -> copy -> b, const -> b, a -> c: with the copy at latency 0
  // its edges constrain nothing, exactly as in the enumerator.
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  const NodeId k = g.addNode(OpKind::kConst);
  const NodeId a = g.addNode(OpKind::kAdd);
  const NodeId copy = g.addNode(OpKind::kCopy);
  const NodeId b = g.addNode(OpKind::kMul);
  const NodeId c = g.addNode(OpKind::kSub);
  g.addEdge(in, a);
  g.addEdge(a, copy);
  g.addEdge(copy, b);
  g.addEdge(k, b);
  g.addEdge(a, c);
  g.addEdge(b, g.addNode(OpKind::kOutput));
  for (const bool zero_copy : {false, true}) {
    EnumerationOptions o;
    o.latency = LatencyModel::hyperDefault();
    if (zero_copy) {
      o.latency.setLatency(OpKind::kCopy, 0);
    }
    o.deadline = 6;
    expectAgreement(g, o);
  }
}

TEST(ScheduleCount, DisconnectedShapeMultipliesComponents) {
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  NodeId prev = in;
  for (int i = 0; i < 3; ++i) {  // a chain
    const NodeId v = g.addNode(OpKind::kAdd);
    g.addEdge(prev, v);
    prev = v;
  }
  const NodeId x = g.addNode(OpKind::kMul);  // a fork, separate component
  g.addEdge(in, x);
  g.addEdge(x, g.addNode(OpKind::kSub));
  g.addEdge(x, g.addNode(OpKind::kXor));
  EnumerationOptions o;
  o.deadline = 5;
  // Chain: C(5,3) = 10.  Fork: Σ_{t=0..3} (4-t)^2 = 30.
  EXPECT_EQ(countSchedules(g, o).count, 300u);
  expectAgreement(g, o);
}

TEST(ScheduleCount, EmptyWindowCountsZero) {
  Cdfg g;
  const NodeId a = g.addNode(OpKind::kAdd);
  const NodeId b = g.addNode(OpKind::kAdd);
  g.addEdge(a, b);
  EnumerationOptions o;
  o.deadline = 4;
  o.windows.push_back({b, 0, 0});  // b cannot start after a
  const CountResult r = countSchedules(g, o);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(enumeratedCount(g, o), 0u);
}

/// Mark `mark` of the marks `author` embeds one after another into
/// MediaBench mpeg2 with the benchmark's parameters.
wm::WatermarkCertificate mpeg2Certificate(const char* author = "author-21-0",
                                          std::size_t mark = 0) {
  workloads::MediaBenchProfile profile;
  for (const auto& p : workloads::mediaBenchProfiles()) {
    if (p.name == "mpeg2") {
      profile = p;
    }
  }
  Cdfg g = workloads::buildMediaBench(profile);
  wm::SchedWmParams params;
  params.deadline = TimeFrames(g, params.latency).criticalPathSteps() + 3;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  const wm::SchedulingWatermarker marker({author, "mpeg2"});
  std::optional<wm::SchedEmbedResult> e;
  for (std::size_t i = 0; i <= mark; ++i) {
    e = marker.embed(g, params, i);
  }
  EXPECT_TRUE(e.has_value());
  return e ? e->certificate : wm::WatermarkCertificate{};
}

TEST(ScheduleCount, Mpeg2LocalityBeyondTheOldEnumerationBudget) {
  // The backtracker needs 217 277 698 partial assignments for this ΨN,
  // past its old 50M budget; run to completion it gives the same count.
  const wm::WatermarkCertificate cert = mpeg2Certificate();
  ASSERT_EQ(cert.shape.nodeCount(), 26u);
  EnumerationOptions o;
  o.max_steps = 50'000'000;
  o.deadline = TimeFrames(cert.shape, o.latency).criticalPathSteps() + 2;
  const CountResult all = countSchedules(cert.shape, o);
  ASSERT_TRUE(all.exact);
  EXPECT_EQ(all.count, 40'166'316u);
  EXPECT_LT(all.steps, 100'000u);

  const wm::PcEstimate pc = wm::exactSchedulingPc(cert, 2);
  EXPECT_EQ(pc.schedules_unconstrained, 40'166'316u);
  EXPECT_EQ(pc.schedules_constrained, 10'752u);
}

TEST(ScheduleCount, TableBoundDoesNotChangeTheCount) {
  // A step whose table would pass max_table_cells conditions on one of
  // its variables instead.  Down to one cell per table, the count and the
  // planned cells stay those of the unbounded elimination.
  std::mt19937_64 rng(11);
  for (std::uint64_t seed = 40; seed < 56; ++seed) {
    cdfg::RandomDfgOptions opt;
    opt.operations = 10;
    opt.inputs = 3;
    opt.width = 4;
    const Cdfg g = cdfg::randomDfg(opt, seed);
    EnumerationOptions o;
    o.deadline = TimeFrames(g, o.latency).criticalPathSteps() + 2;
    const std::vector<NodeId> ops = realOpsInTopoOrder(g, o.latency);
    for (int e = 0; e < 2; ++e) {
      const std::size_t a = rng() % ops.size();
      const std::size_t b = rng() % ops.size();
      if (a != b) {
        o.extra_edges.push_back({ops[std::min(a, b)], ops[std::max(a, b)]});
      }
    }
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    o.max_table_cells = std::numeric_limits<std::uint64_t>::max();
    const CountResult unbounded = countSchedules(g, o);
    ASSERT_TRUE(unbounded.exact);
    EXPECT_EQ(unbounded.count, enumeratedCount(g, o));
    for (const std::uint64_t cap : {1u, 2u, 5u, 30u}) {
      o.max_table_cells = cap;
      const CountResult r = countSchedules(g, o);
      ASSERT_TRUE(r.exact) << "cap " << cap;
      EXPECT_EQ(r.count, unbounded.count) << "cap " << cap;
      if (unbounded.count > 0) {
        EXPECT_EQ(r.steps, unbounded.steps) << "cap " << cap;
      }
    }
  }
}

TEST(ScheduleCount, Mpeg2WideLocalitiesStayWithinTheTableBound) {
  // Two mpeg2 counts whose eliminations plan tables past the default bound
  // of 65 536 cells: ΨW of one mark (an 844 800-cell table, 13.5 MiB;
  // no schedule meets its constraints) and ΨN of another (69 300 cells).
  // Both condition, and count what the unbounded elimination counts.
  struct Case {
    const char* author;
    std::size_t mark;
    bool constrained;
    std::uint64_t count;
  };
  for (const Case& c :
       {Case{"author-6-1860", 1, true, 0},
        Case{"author-6-3660", 0, false, 3'600'889'149'981'258}}) {
    SCOPED_TRACE(c.author);
    const wm::WatermarkCertificate cert = mpeg2Certificate(c.author, c.mark);
    EnumerationOptions o;
    o.max_steps = 50'000'000;
    o.deadline = TimeFrames(cert.shape, o.latency).criticalPathSteps() + 2;
    for (const wm::RankConstraint& rc : cert.constraints) {
      if (c.constrained) {
        o.extra_edges.push_back(
            {NodeId(rc.before_rank), NodeId(rc.after_rank)});
      }
    }
    o.max_table_cells = std::numeric_limits<std::uint64_t>::max();
    const CountResult unbounded = countSchedules(cert.shape, o);
    ASSERT_TRUE(unbounded.exact);
    EXPECT_EQ(unbounded.count, c.count);

    obs::setEnabled(true);
    obs::Counter& conditioned =
        obs::MetricsRegistry::instance().counter("sched.enum.conditioned");
    const std::uint64_t before = conditioned.value();
    o.max_table_cells = EnumerationOptions{}.max_table_cells;
    const CountResult bounded = countSchedules(cert.shape, o);
    const std::uint64_t runs = conditioned.value() - before;
    obs::setEnabled(false);
    ASSERT_TRUE(bounded.exact);
    EXPECT_EQ(bounded.count, unbounded.count);
#if LOCWM_OBS_ENABLED
    EXPECT_GT(runs, 0u);
#else
    static_cast<void>(runs);
#endif
  }
}

TEST(ScheduleCount, AggregateIdenticalAcrossThreadCounts) {
  std::vector<wm::WatermarkCertificate> certs;
  for (const auto& design : workloads::hyperSuite()) {
    Cdfg g = design.graph;
    wm::SchedWmParams params;
    params.locality.min_size = 4;
    params.min_eligible = 2;
    params.deadline = TimeFrames(g, params.latency).criticalPathSteps() + 2;
    for (const auto& r :
         wm::SchedulingWatermarker({"alice", "pc"}).embedMany(g, 3, params)) {
      certs.push_back(r.certificate);
    }
  }
  certs.push_back(mpeg2Certificate());
  ASSERT_GE(certs.size(), 8u);
  std::optional<wm::AggregatePc> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    rt::setThreadCount(threads);
    const wm::AggregatePc agg = wm::aggregateSchedulingPc(certs, 2);
    EXPECT_EQ(agg.failed, 0u);
    if (!reference) {
      reference = agg;
      continue;
    }
    EXPECT_EQ(std::memcmp(&agg.combined.log10_pc,
                          &reference->combined.log10_pc, sizeof(double)),
              0)
        << "threads=" << threads;
    ASSERT_EQ(agg.per_certificate.size(), reference->per_certificate.size());
    for (std::size_t i = 0; i < certs.size(); ++i) {
      ASSERT_TRUE(agg.per_certificate[i].has_value());
      EXPECT_EQ(agg.per_certificate[i]->schedules_unconstrained,
                reference->per_certificate[i]->schedules_unconstrained);
      EXPECT_EQ(agg.per_certificate[i]->schedules_constrained,
                reference->per_certificate[i]->schedules_constrained);
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
}

TEST(ScheduleCount, OverflowIsReportedNotWrapped) {
  // 40 independent ops in 4 steps: 4^40 = 2^80 schedules.
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  for (int i = 0; i < 40; ++i) {
    g.addEdge(in, g.addNode(OpKind::kAdd));
  }
  EnumerationOptions o;
  o.deadline = 4;
  const CountResult r = countSchedules(g, o);
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.count, 0u);
}

TEST(ScheduleCount, WideHostileShapeStopsAtTheCellBound) {
  // Every op of one layer of 40 precedes every op of the next: eliminating
  // any op leaves a scope of 40 variables, 3^40 cells at slack 2.
  wm::WatermarkCertificate cert;
  Cdfg& g = cert.shape;
  const NodeId in = g.addNode(OpKind::kInput);
  std::vector<NodeId> first;
  std::vector<NodeId> second;
  for (int i = 0; i < 40; ++i) {
    first.push_back(g.addNode(OpKind::kAdd));
    g.addEdge(in, first.back());
  }
  for (int i = 0; i < 40; ++i) {
    second.push_back(g.addNode(OpKind::kMul));
    for (const NodeId u : first) {
      g.addEdge(u, second.back());
    }
  }
  cert.root_rank = second.front().value();
  cert.constraints.push_back({first[0].value(), first[1].value()});

  EnumerationOptions o;
  o.deadline = 4;
  const CountResult r = countSchedules(g, o);
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.steps, 0u);  // stopped before evaluating any table

  const wm::AggregatePc agg = wm::aggregateSchedulingPc({cert}, 2);
  ASSERT_EQ(agg.per_certificate.size(), 1u);
  EXPECT_FALSE(agg.per_certificate[0].has_value());
  EXPECT_EQ(agg.failed, 1u);
}

}  // namespace
}  // namespace locwm::sched
