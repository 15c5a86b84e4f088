// Parameterized property sweeps (TEST_P): cross-cutting invariants that
// must hold over families of random graphs and parameter settings.
#include <gtest/gtest.h>

#include <tuple>

#include "cdfg/random_dfg.h"
#include "cdfg/subgraph.h"
#include "core/pc.h"
#include "core/sched_wm.h"
#include "sched/enumeration.h"
#include "sched/force_directed.h"
#include "sched/list_scheduler.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"

namespace locwm {
namespace {

using cdfg::Cdfg;
using cdfg::NodeId;

// ---------------------------------------------------------------------------
// Property: for every random DFG and every deadline, ASAP <= ALAP, every
// scheduler output lands inside the frames, and frames shrink as the
// deadline shrinks.
// ---------------------------------------------------------------------------
class FramesProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(FramesProperty, FramesBracketSchedules) {
  const auto [seed, slack] = GetParam();
  cdfg::RandomDfgOptions o;
  o.operations = 60;
  const Cdfg g = cdfg::randomDfg(o, seed);
  const sched::LatencyModel lat = sched::LatencyModel::unit();
  const sched::TimeFrames tight(g, lat);
  const std::uint32_t deadline = tight.criticalPathSteps() + slack;
  const sched::TimeFrames tf(g, lat, deadline);

  for (const NodeId v : g.allNodes()) {
    ASSERT_LE(tf.asap(v), tf.alap(v));
    // Slack widens mobility monotonically.
    ASSERT_GE(tf.mobility(v), tight.mobility(v));
  }
  // Any ASAP-greedy schedule must respect the frames.
  const sched::Schedule s = sched::listSchedule(g);
  for (const NodeId v : g.allNodes()) {
    if (lat.latency(g.node(v).kind) == 0) {
      continue;
    }
    ASSERT_GE(s.at(v), tf.asap(v));
  }
  // Force-directed output fits inside [asap, alap] by construction.
  sched::ForceDirectedOptions fd;
  fd.deadline = deadline;
  const sched::Schedule f = sched::forceDirectedSchedule(g, fd);
  for (const NodeId v : g.allNodes()) {
    ASSERT_GE(f.at(v), tf.asap(v));
    ASSERT_LE(f.at(v), tf.alap(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FramesProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0u, 2u, 5u)));

// ---------------------------------------------------------------------------
// Property: the scheduling watermark round-trips on every HYPER design and
// both K settings: embed -> schedule -> strip -> detect succeeds, and the
// marked schedule still fits the deadline.
// ---------------------------------------------------------------------------
class WatermarkRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(WatermarkRoundTrip, EmbedScheduleDetect) {
  const auto [design_index, k_fraction] = GetParam();
  const auto suite = workloads::hyperSuite();
  ASSERT_LT(design_index, suite.size());
  Cdfg g = suite[design_index].graph;

  const sched::TimeFrames tf(g, sched::LatencyModel::unit());
  wm::SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.k_fraction = k_fraction;
  params.deadline = tf.criticalPathSteps() + 3;

  wm::SchedulingWatermarker marker({"alice", suite[design_index].name});
  const auto r = marker.embed(g, params);
  if (!r) {
    GTEST_SKIP() << "design too small/symmetric for these parameters";
  }
  sched::ForceDirectedOptions fd;
  fd.deadline = params.deadline;
  const sched::Schedule s = sched::forceDirectedSchedule(g, fd);
  ASSERT_LE(s.makespan(g, fd.latency), *params.deadline);

  const Cdfg published = g.stripTemporalEdges();
  const auto det = marker.detect(published, s, r->certificate);
  EXPECT_TRUE(det.found) << det.satisfied << "/" << det.total;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WatermarkRoundTrip,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 3, 4, 5, 6, 7,
                                                      8),
                       ::testing::Values(0.2, 0.5)));

// ---------------------------------------------------------------------------
// Property: enumeration counts are consistent — adding any extra edge can
// only reduce the count, and the reduction matches the window-model bound
// qualitatively (never increases).
// ---------------------------------------------------------------------------
class EnumerationMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnumerationMonotone, ExtraEdgesOnlyReduce) {
  cdfg::RandomDfgOptions o;
  o.operations = 9;
  o.inputs = 3;
  o.width = 4;
  const Cdfg g = cdfg::randomDfg(o, GetParam());
  sched::EnumerationOptions eo;
  const sched::TimeFrames tf(g, eo.latency);
  eo.deadline = tf.criticalPathSteps() + 2;

  const std::uint64_t base = sched::countSchedules(g, eo).count;
  ASSERT_GT(base, 0u);

  // Try every unconstrained real pair as an extra edge.
  std::vector<NodeId> real;
  for (const NodeId v : g.allNodes()) {
    if (!cdfg::isPseudoOp(g.node(v).kind)) {
      real.push_back(v);
    }
  }
  for (std::size_t i = 0; i < real.size(); ++i) {
    for (std::size_t j = 0; j < real.size(); ++j) {
      if (i == j) {
        continue;
      }
      sched::EnumerationOptions with = eo;
      with.extra_edges.push_back({real[i], real[j]});
      std::uint64_t constrained = 0;
      try {
        constrained = sched::countSchedules(g, with).count;
      } catch (const ScheduleError&) {
        continue;  // the pair is cyclic with the graph
      }
      ASSERT_LE(constrained, base);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnumerationMonotone,
                         ::testing::Values(11u, 12u, 13u, 14u));

// ---------------------------------------------------------------------------
// Property: exact Pc and the window-model approximation agree in sign and
// rough magnitude on small certificates (within 2 decades).
// ---------------------------------------------------------------------------
class PcAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PcAgreement, ApproxTracksExact) {
  const auto suite = workloads::hyperSuite();
  Cdfg g = suite[GetParam()].graph;
  const sched::TimeFrames tf(g, sched::LatencyModel::unit());
  wm::SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.deadline = tf.criticalPathSteps() + 2;
  wm::SchedulingWatermarker marker({"alice", "pc"});
  const auto r = marker.embed(g, params);
  if (!r) {
    GTEST_SKIP();
  }
  wm::PcEstimate exact;
  try {
    exact = wm::exactSchedulingPc(r->certificate, 2);
  } catch (const Error& e) {
    FAIL() << "exact Pc not counted: " << e.what();
  }
  // Approximation over the same locality shape.
  std::vector<sched::ExtraEdge> edges;
  for (const auto& c : r->certificate.constraints) {
    edges.push_back({NodeId(c.before_rank), NodeId(c.after_rank)});
  }
  const sched::TimeFrames lf(r->certificate.shape,
                             sched::LatencyModel::unit());
  const auto approx = wm::approxSchedulingPc(
      r->certificate.shape, edges, sched::LatencyModel::unit(),
      lf.criticalPathSteps() + 2);
  EXPECT_LT(exact.log10_pc, 0.0);
  EXPECT_LT(approx.log10_pc, 0.0);
  EXPECT_NEAR(exact.log10_pc, approx.log10_pc, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PcAgreement,
                         ::testing::Values<std::size_t>(0, 1, 2, 3, 5));

}  // namespace
}  // namespace locwm
