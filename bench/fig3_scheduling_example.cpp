// FIG3 — reproduces Fig. 3 of the paper: local watermarking of the
// fourth-order parallel IIR filter's scheduling solution.
//
// The paper's figure reports, for its subtree T and five temporal edges:
//   * one example pair: ΨN = 77 schedulings, ΨW = 10;
//   * subtree T: 166 schedules unconstrained, 15 constrained;
//   * Pc = 15/166 ≈ 0.09.
//
// We regenerate the same quantities on the reconstructed filter: the
// subtree is counted under the *global* ASAP/ALAP windows of the whole
// design (that is what bounds the paper's counts to the hundreds), without
// and with the five temporal edges.
#include <cstdio>

#include "bench/bench_util.h"
#include "cdfg/subgraph.h"
#include "sched/enumeration.h"
#include "sched/timeframes.h"
#include "workloads/iir4.h"

int main(int argc, char** argv) {
  using namespace locwm;
  bench::JsonReport report("fig3_scheduling_example", argc, argv);
  bench::banner("FIG3  scheduling watermark on the 4th-order parallel IIR",
                "Kirovski & Potkonjak, TCAD 22(9) 2003, Fig. 3");

  const cdfg::Cdfg g = workloads::iir4Parallel();
  const auto edges = workloads::fig3TemporalEdges(g);

  // The subtree of Fig. 3: the taps and the joining additions around the
  // temporal-edge endpoints.
  std::vector<cdfg::NodeId> subtree;
  for (const char* name :
       {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "A1", "A2", "A4"}) {
    subtree.push_back(g.findByName(name));
  }
  std::sort(subtree.begin(), subtree.end());

  for (const std::uint32_t slack : {1u, 2u}) {
    const sched::TimeFrames global(g, sched::LatencyModel::unit(),
                                   std::nullopt);
    const std::uint32_t deadline = global.criticalPathSteps() + slack;
    const sched::TimeFrames tf(g, sched::LatencyModel::unit(), deadline);

    cdfg::NodeMap map;
    const cdfg::Cdfg sub = cdfg::inducedSubgraph(g, subtree, &map);

    sched::EnumerationOptions base;
    base.deadline = deadline;
    for (const cdfg::NodeId v : subtree) {
      base.windows.push_back({map.at(v), tf.asap(v), tf.alap(v)});
    }
    const auto unconstrained = sched::countSchedules(sub, base);

    sched::EnumerationOptions constrained = base;
    for (const auto& [src, dst] : edges) {
      constrained.extra_edges.push_back({map.at(src), map.at(dst)});
    }
    const auto with = sched::countSchedules(sub, constrained);

    std::printf("\nsubtree T (%zu ops), global windows, deadline C+%u:\n",
                subtree.size(), slack);
    std::printf("  %-46s %12llu   (paper: 166)\n",
                "schedules of the unconstrained subtree",
                static_cast<unsigned long long>(unconstrained.count));
    std::printf("  %-46s %12llu   (paper: 15)\n",
                "schedules satisfying the 5 watermark edges",
                static_cast<unsigned long long>(with.count));
    const double pc = with.count == 0
                          ? 0.0
                          : static_cast<double>(with.count) /
                                static_cast<double>(unconstrained.count);
    std::printf("  %-46s %12.4f   (paper: 15/166 = 0.0904)\n",
                "Pc (coincidence likelihood)", pc);
    report.row({{"slack", slack},
                {"unconstrained_schedules", unconstrained.count},
                {"constrained_schedules", with.count},
                {"pc", pc}});

    std::printf("  per-edge Psi pairs (PsiW / PsiN), paper example: 10/77\n");
    for (const auto& [src, dst] : edges) {
      const auto psi =
          sched::countPsi(sub, map.at(src), map.at(dst), base);
      std::printf("    %-4s -> %-4s : %6llu / %-6llu  (ratio %.3f)\n",
                  g.node(src).name.c_str(), g.node(dst).name.c_str(),
                  static_cast<unsigned long long>(psi.with_edge.count),
                  static_cast<unsigned long long>(psi.without_edge.count),
                  static_cast<double>(psi.with_edge.count) /
                      static_cast<double>(psi.without_edge.count));
    }
  }
  // Nearest-configuration check: the section-1 cone {C1..C4, A1, A2} under
  // the tightest windows is the closest analogue of the paper's "166"
  // subtree our reconstruction admits.
  {
    std::vector<cdfg::NodeId> cone;
    for (const char* name : {"C1", "C2", "C3", "C4", "A1", "A2"}) {
      cone.push_back(g.findByName(name));
    }
    std::sort(cone.begin(), cone.end());
    const sched::TimeFrames tf(g, sched::LatencyModel::unit(),
                               std::uint32_t{6});
    cdfg::NodeMap map;
    const cdfg::Cdfg sub = cdfg::inducedSubgraph(g, cone, &map);
    sched::EnumerationOptions base;
    base.deadline = 6;
    for (const cdfg::NodeId v : cone) {
      base.windows.push_back({map.at(v), tf.asap(v), tf.alap(v)});
    }
    const auto total = sched::countSchedules(sub, base);
    sched::EnumerationOptions constrained = base;
    constrained.extra_edges.push_back(
        {map.at(g.findByName("C1")), map.at(g.findByName("C3"))});
    constrained.extra_edges.push_back(
        {map.at(g.findByName("C2")), map.at(g.findByName("C4"))});
    const auto with = sched::countSchedules(sub, constrained);
    std::printf(
        "\nnearest-configuration check (section-1 cone, deadline C+1):\n"
        "  %llu schedules total vs paper's 166; %llu under two edges "
        "(Pc %.3f)\n",
        static_cast<unsigned long long>(total.count),
        static_cast<unsigned long long>(with.count),
        static_cast<double>(with.count) / static_cast<double>(total.count));
  }

  std::printf(
      "\nNOTE: the figure's exact netlist is only partially legible; this is\n"
      "a documented reconstruction (see workloads/iir4.h and "
      "EXPERIMENTS.md).\nThe claim under test is the *shape*: the watermark "
      "cuts the schedule\nspace by an order of magnitude at ~zero timing "
      "cost.\n");
  return 0;
}
