// Scheduling substrate tests: Schedule/validate, time frames, and the
// three schedulers (list, force-directed, branch-and-bound).
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/random_dfg.h"
#include "sched/bb_scheduler.h"
#include "sched/force_directed.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"
#include "workloads/iir4.h"

#include "longest_path_oracle.h"

namespace locwm::sched {
namespace {

using cdfg::Cdfg;
using cdfg::EdgeKind;
using cdfg::NodeId;
using cdfg::OpKind;

Cdfg vee() {
  // in1 -> a, in2 -> b; {a, b} -> c -> out; plus independent d.
  Cdfg g;
  const NodeId i1 = g.addNode(OpKind::kInput, "i1");
  const NodeId i2 = g.addNode(OpKind::kInput, "i2");
  const NodeId a = g.addNode(OpKind::kAdd, "a");
  const NodeId b = g.addNode(OpKind::kAdd, "b");
  const NodeId c = g.addNode(OpKind::kAdd, "c");
  const NodeId d = g.addNode(OpKind::kMul, "d");
  const NodeId out = g.addNode(OpKind::kOutput, "o");
  g.addEdge(i1, a);
  g.addEdge(i2, b);
  g.addEdge(a, c);
  g.addEdge(b, c);
  g.addEdge(c, out);
  g.addEdge(i1, d);
  return g;
}

TEST(Schedule, SetAtIsSet) {
  Schedule s(3);
  EXPECT_FALSE(s.isSet(NodeId(0)));
  s.set(NodeId(0), 4);
  EXPECT_TRUE(s.isSet(NodeId(0)));
  EXPECT_EQ(s.at(NodeId(0)), 4u);
  EXPECT_THROW((void)s.at(NodeId(1)), ScheduleError);
  EXPECT_THROW((void)s.at(NodeId(9)), ScheduleError);
}

TEST(Schedule, ValidateCatchesEveryViolationKind) {
  const Cdfg g = vee();
  const LatencyModel lat = LatencyModel::unit();
  Schedule s(g.nodeCount());
  // Unassigned node.
  EXPECT_TRUE(validate(g, s, lat).has_value());
  for (const NodeId v : g.allNodes()) {
    s.set(v, 0);
  }
  // a -> c violated at equal steps (unit latency).
  auto violation = validate(g, s, lat);
  ASSERT_TRUE(violation.has_value());
  s.set(g.findByName("c"), 1);
  s.set(g.findByName("o"), 2);
  EXPECT_FALSE(validate(g, s, lat).has_value());
}

TEST(Schedule, ValidateTemporalToggle) {
  Cdfg g = vee();
  g.addEdge(g.findByName("d"), g.findByName("c"), EdgeKind::kTemporal);
  Schedule s(g.nodeCount());
  for (const NodeId v : g.allNodes()) {
    s.set(v, 0);
  }
  s.set(g.findByName("c"), 1);
  s.set(g.findByName("d"), 1);  // violates temporal d < c
  s.set(g.findByName("o"), 2);
  EXPECT_TRUE(validate(g, s, LatencyModel::unit(), true).has_value());
  EXPECT_FALSE(validate(g, s, LatencyModel::unit(), false).has_value());
}

TEST(Schedule, MakespanAndResourceProfile) {
  const Cdfg g = vee();
  const LatencyModel lat = LatencyModel::unit();
  const Schedule s = listSchedule(g);
  EXPECT_EQ(s.makespan(g, lat), 2u);  // a,b,d at 0; c at 1
  const ResourceProfile profile = resourceProfile(g, s, lat);
  const auto peaks = profile.peaks();
  EXPECT_EQ(peaks[static_cast<std::size_t>(cdfg::FuClass::kAlu)], 2u);
  EXPECT_EQ(peaks[static_cast<std::size_t>(cdfg::FuClass::kMul)], 1u);
}

TEST(Schedule, RespectsLimits) {
  const Cdfg g = vee();
  const Schedule s = listSchedule(g);
  const ResourceProfile p = resourceProfile(g, s, LatencyModel::unit());
  EXPECT_TRUE(respectsLimits(p, ResourceLimits::unlimited()));
  EXPECT_TRUE(respectsLimits(p, ResourceLimits::of(2, 1)));
  EXPECT_FALSE(respectsLimits(p, ResourceLimits::of(1, 1)));
}

TEST(TimeFrames, ChainIsRigidAtCriticalDeadline) {
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  NodeId prev = in;
  for (int i = 0; i < 3; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd);
    g.addEdge(prev, v);
    prev = v;
  }
  const TimeFrames tf(g, LatencyModel::unit());
  EXPECT_EQ(tf.criticalPathSteps(), 3u);
  for (const NodeId v : g.allNodes()) {
    EXPECT_EQ(tf.mobility(v), 0u);
  }
}

TEST(TimeFrames, SlackDistributes) {
  const Cdfg g = vee();
  const TimeFrames tf(g, LatencyModel::unit(), 4u);
  // Critical path a->c (2 steps); with deadline 4 everything gains 2.
  EXPECT_EQ(tf.mobility(g.findByName("a")), 2u);
  EXPECT_EQ(tf.mobility(g.findByName("d")), 3u);  // independent op
  EXPECT_TRUE(tf.lifetimesOverlap(g.findByName("a"), g.findByName("d")));
}

TEST(TimeFrames, ThrowsBelowCriticalPath) {
  const Cdfg g = vee();
  EXPECT_THROW((void)TimeFrames(g, LatencyModel::unit(), 1u),
               ScheduleError);
}

TEST(TimeFrames, HyperLatencyDoublesMultiplies) {
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  const NodeId m = g.addNode(OpKind::kMul);
  const NodeId a = g.addNode(OpKind::kAdd);
  g.addEdge(in, m);
  g.addEdge(m, a);
  const TimeFrames tf(g, LatencyModel::hyperDefault());
  EXPECT_EQ(tf.criticalPathSteps(), 3u);  // 2 (mul) + 1 (add)
  EXPECT_EQ(tf.asap(a), 2u);
}

TEST(TimeFrames, TemporalEdgesTightenWhenIncluded) {
  Cdfg g = vee();
  g.addEdge(g.findByName("d"), g.findByName("c"), EdgeKind::kTemporal);
  const TimeFrames with(g, LatencyModel::unit(), 3u, true);
  const TimeFrames without(g, LatencyModel::unit(), 3u, false);
  EXPECT_LE(with.alap(g.findByName("d")), without.alap(g.findByName("d")));
}

TEST(TimeFrames, ViewConstructorKeepsErrorContract) {
  Cdfg g = vee();
  // a -> c is a data edge; c -> a closes a cycle through a temporal edge.
  g.addEdge(g.findByName("c"), g.findByName("a"), EdgeKind::kTemporal);
  const cdfg::CsrView view(g);
  EXPECT_THROW((void)TimeFrames(view, LatencyModel::unit(), std::nullopt,
                                /*includeTemporal=*/true),
               GraphError);
  const TimeFrames without(view, LatencyModel::unit(), std::nullopt,
                           /*includeTemporal=*/false);
  EXPECT_EQ(without.criticalPathSteps(), 2u);
  EXPECT_THROW((void)TimeFrames(view, LatencyModel::unit(), 1u,
                                /*includeTemporal=*/false),
               ScheduleError);
}

/// Adds up to `count` temporal edges between random node pairs, each from
/// the lower id to the higher (randomDfg ids are topological, so the graph
/// stays acyclic).
void addForwardTemporalEdges(Cdfg& g, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, g.nodeCount() - 1);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId a(static_cast<NodeId::value_type>(pick(rng)));
    const NodeId b(static_cast<NodeId::value_type>(pick(rng)));
    if (a.value() < b.value() && !g.hasEdge(a, b, EdgeKind::kTemporal)) {
      g.addEdge(a, b, EdgeKind::kTemporal);
    }
  }
}

TEST(TimeFrames, MatchesLongestPathOracleOnRandomDfgs) {
  // Both constructors against the Bellman–Ford oracle: random DAGs with
  // watermark-like temporal edges, unit and HYPER latency, temporal edges
  // considered or not, deadlines CP..CP+3 and the default (CP).
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    cdfg::RandomDfgOptions opt;
    opt.operations = 60;
    opt.inputs = 4;
    opt.width = 6;
    Cdfg g = cdfg::randomDfg(opt, seed);
    addForwardTemporalEdges(g, 8, seed * 3);
    const cdfg::CsrView view(g);
    for (const LatencyModel& lat :
         {LatencyModel::unit(), LatencyModel::hyperDefault()}) {
      for (const bool include_temporal : {true, false}) {
        const testing::LongestPathFrames tight = testing::longestPathFrames(
            g, lat, std::nullopt, include_temporal);
        std::vector<std::optional<std::uint32_t>> deadlines{std::nullopt};
        for (std::uint32_t slack = 0; slack <= 3; ++slack) {
          deadlines.emplace_back(tight.critical + slack);
        }
        for (const std::optional<std::uint32_t> deadline : deadlines) {
          const testing::LongestPathFrames oracle =
              testing::longestPathFrames(g, lat, deadline, include_temporal);
          const TimeFrames from_view(view, lat, deadline, include_temporal);
          const TimeFrames from_builder(g, lat, deadline, include_temporal);
          for (const TimeFrames* tf : {&from_view, &from_builder}) {
            ASSERT_EQ(tf->criticalPathSteps(), oracle.critical)
                << "seed " << seed;
            ASSERT_EQ(tf->deadline(), oracle.deadline) << "seed " << seed;
            for (const NodeId v : g.allNodes()) {
              ASSERT_EQ(tf->asap(v), oracle.asap[v.value()])
                  << "seed " << seed << " asap " << v.value();
              ASSERT_EQ(tf->alap(v), oracle.alap[v.value()])
                  << "seed " << seed << " alap " << v.value();
            }
          }
        }
      }
    }
  }
}

/// Every frame value of `tf` over `g`, then the critical path: equal
/// vectors mean equal frames.
std::vector<std::uint32_t> frameValues(const Cdfg& g, const TimeFrames& tf) {
  std::vector<std::uint32_t> out;
  for (const NodeId v : g.allNodes()) {
    out.push_back(tf.asap(v));
    out.push_back(tf.alap(v));
  }
  out.push_back(tf.criticalPathSteps());
  return out;
}

TEST(TimeFrames, AddEdgeMatchesRebuild) {
  // Full construction is the oracle for in-place re-timing: random DAGs,
  // unit and HYPER latencies, deadlines CP..CP+3, with and without
  // temporal edges, random acyclic temporal and data edges added one at
  // a time.
  std::size_t matched = 0;
  std::size_t ignored = 0;
  std::size_t refused = 0;
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    cdfg::RandomDfgOptions opt;
    opt.operations = 40;
    const Cdfg original = cdfg::randomDfg(opt, seed);
    for (const LatencyModel& lat :
         {LatencyModel::unit(), LatencyModel::hyperDefault()}) {
      const std::uint32_t cp = TimeFrames(original, lat).criticalPathSteps();
      for (std::uint32_t slack = 0; slack <= 3; ++slack) {
        for (const bool include_temporal : {true, false}) {
          Cdfg g = original;
          TimeFrames tf(g, lat, cp + slack, include_temporal);
          std::mt19937_64 rng(seed * 131 + slack * 7 +
                              (include_temporal ? 1 : 0));
          std::uniform_int_distribution<std::size_t> pick(
              0, g.nodeCount() - 1);
          for (int trial = 0; trial < 60; ++trial) {
            const NodeId a(static_cast<NodeId::value_type>(pick(rng)));
            const NodeId b(static_cast<NodeId::value_type>(pick(rng)));
            const EdgeKind kind =
                (rng() & 1) != 0 ? EdgeKind::kTemporal : EdgeKind::kData;
            if (a == b || (kind == EdgeKind::kTemporal &&
                           g.hasEdge(a, b, EdgeKind::kTemporal))) {
              continue;
            }
            const cdfg::EdgeId e = g.addEdge(a, b, kind);
            try {
              g.checkAcyclic();
            } catch (const GraphError&) {
              g.removeEdge(e);
              continue;
            }
            const std::vector<std::uint32_t> before = frameValues(g, tf);
            std::optional<TimeFrames> fresh;
            try {
              fresh.emplace(g, lat, tf.deadline(), include_temporal);
            } catch (const ScheduleError&) {
              // Past the deadline: addEdge throws like the constructor and
              // leaves the frames as they were.
              EXPECT_THROW(tf.addEdge(g, lat, e), ScheduleError);
              EXPECT_EQ(frameValues(g, tf), before);
              g.removeEdge(e);
              ++refused;
              continue;
            }
            tf.addEdge(g, lat, e);
            ASSERT_EQ(frameValues(g, tf), frameValues(g, *fresh))
                << "seed " << seed << " slack " << slack << " trial "
                << trial;
            if (kind == EdgeKind::kTemporal && !include_temporal) {
              EXPECT_EQ(frameValues(g, tf), before);
              ++ignored;
            } else {
              ++matched;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(matched, 500u);
  EXPECT_GT(ignored, 100u);
  EXPECT_GT(refused, 50u);
}

TEST(ListScheduler, ValidOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cdfg::RandomDfgOptions o;
    o.operations = 80;
    const Cdfg g = cdfg::randomDfg(o, seed);
    ListSchedulerOptions opts;
    opts.limits = ResourceLimits::of(3, 2);
    const Schedule s = listSchedule(g, opts);
    EXPECT_FALSE(validate(g, s, opts.latency).has_value()) << seed;
    EXPECT_TRUE(respectsLimits(resourceProfile(g, s, opts.latency),
                               opts.limits))
        << seed;
  }
}

TEST(ListScheduler, ResourceLimitsStretchSchedule) {
  const Cdfg g = workloads::fir(16);
  ListSchedulerOptions unconstrained;
  ListSchedulerOptions tight;
  tight.limits = ResourceLimits::of(1, 1);
  const auto s0 = listSchedule(g, unconstrained);
  const auto s1 = listSchedule(g, tight);
  EXPECT_GT(s1.makespan(g, tight.latency),
            s0.makespan(g, unconstrained.latency));
}

TEST(ListScheduler, HonorsTemporalEdges) {
  Cdfg g = vee();
  const NodeId d = g.findByName("d");
  const NodeId a = g.findByName("a");
  g.addEdge(d, a, EdgeKind::kTemporal);
  const Schedule s = listSchedule(g);
  EXPECT_LT(s.at(d), s.at(a));
  // And can be told to ignore them (baseline mode).
  ListSchedulerOptions ignore;
  ignore.honor_temporal = false;
  const Schedule s2 = listSchedule(g, ignore);
  EXPECT_FALSE(validate(g, s2, ignore.latency, false).has_value());
}

TEST(ForceDirected, MeetsDeadlineAndIsValid) {
  const Cdfg g = workloads::iir4Parallel();
  ForceDirectedOptions opts;
  opts.deadline = 7;
  const Schedule s = forceDirectedSchedule(g, opts);
  EXPECT_FALSE(validate(g, s, opts.latency).has_value());
  EXPECT_LE(s.makespan(g, opts.latency), 7u);
}

TEST(ForceDirected, BalancesBetterThanAsap) {
  // On a FIR tree with slack, FDS should not exceed the trivial peak.
  const Cdfg g = workloads::fir(8);
  ForceDirectedOptions opts;
  const TimeFrames tf(g, opts.latency);
  opts.deadline = tf.criticalPathSteps() + 3;
  const Schedule fds = forceDirectedSchedule(g, opts);
  const Schedule asap = listSchedule(g);
  const auto fds_peak =
      resourceProfile(g, fds, opts.latency).peaks();
  const auto asap_peak =
      resourceProfile(g, asap, opts.latency).peaks();
  EXPECT_LE(fds_peak[static_cast<std::size_t>(cdfg::FuClass::kMul)],
            asap_peak[static_cast<std::size_t>(cdfg::FuClass::kMul)]);
  EXPECT_FALSE(validate(g, fds, opts.latency).has_value());
}

TEST(ForceDirected, ThrowsOnInfeasibleDeadline) {
  const Cdfg g = workloads::fir(8);
  ForceDirectedOptions opts;
  opts.deadline = 1;
  EXPECT_THROW((void)forceDirectedSchedule(g, opts), ScheduleError);
}

TEST(BranchBound, OptimalOnSmallGraphAndNotWorseThanFds) {
  const Cdfg g = workloads::fir(6);
  BranchBoundOptions opts;
  const TimeFrames tf(g, opts.latency);
  opts.deadline = tf.criticalPathSteps() + 2;
  const BranchBoundResult r = branchBoundSchedule(g, opts);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_FALSE(validate(g, r.schedule, opts.latency).has_value());

  ForceDirectedOptions fd;
  fd.deadline = opts.deadline;
  const Schedule fds = forceDirectedSchedule(g, fd);
  const auto peaks = resourceProfile(g, fds, fd.latency).peaks();
  double fds_cost = 0;
  for (std::size_t fu = 0; fu < peaks.size(); ++fu) {
    fds_cost += opts.unit_cost[fu] * peaks[fu];
  }
  EXPECT_LE(r.cost, fds_cost + 1e-9);
}

TEST(BranchBound, HonorsTemporalEdges) {
  Cdfg g = vee();
  const NodeId d = g.findByName("d");
  const NodeId a = g.findByName("a");
  g.addEdge(d, a, EdgeKind::kTemporal);
  BranchBoundOptions opts;
  opts.deadline = 4;
  const BranchBoundResult r = branchBoundSchedule(g, opts);
  EXPECT_LT(r.schedule.at(d), r.schedule.at(a));
}

TEST(ScheduleIo, RoundTrip) {
  const Cdfg g = workloads::fir(8);
  const Schedule s = listSchedule(g);
  const std::string text = scheduleToString(g, s);
  const Schedule back = parseScheduleString(text, g.nodeCount());
  EXPECT_EQ(back, s);
}

TEST(ScheduleIo, CommentsAndErrors) {
  const Schedule s =
      parseScheduleString("# header\n0 3\n1 4  # op one\n", 2);
  EXPECT_EQ(s.at(NodeId(0)), 3u);
  EXPECT_EQ(s.at(NodeId(1)), 4u);
  EXPECT_THROW((void)parseScheduleString("0\n", 2), ParseError);
  EXPECT_THROW((void)parseScheduleString("0 1 junk\n", 2), ParseError);
  EXPECT_THROW((void)parseScheduleString("9 0\n", 2), ParseError);
  // Partial schedules parse; validation reports the hole.
  const Schedule partial = parseScheduleString("0 0\n", 2);
  EXPECT_FALSE(partial.isSet(NodeId(1)));
}

}  // namespace
}  // namespace locwm::sched
