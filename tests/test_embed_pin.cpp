// Output pin for the scheduling embedders.  The digests below were
// recorded from a build that rebuilt the time frames and the structural
// analysis for every root tried and answered every partner test with its
// own reachability search; any rework of the embedders' internals must
// reproduce them byte for byte.  Each digest covers the certificate texts,
// the roots tried per mark and the marked design with its temporal edges.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cdfg/io.h"
#include "core/certificate_io.h"
#include "core/global_wm.h"
#include "core/sched_wm.h"
#include "crypto/sha256.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"
#include "workloads/mediabench.h"

namespace locwm::wm {
namespace {

cdfg::Cdfg mpeg2() {
  for (const workloads::MediaBenchProfile& p :
       workloads::mediaBenchProfiles()) {
    if (p.name == "mpeg2") {
      return workloads::buildMediaBench(p);
    }
  }
  ADD_FAILURE() << "no mpeg2 profile";
  return {};
}

/// Prints what one embed call produced, or "refused".
void printEmbed(std::ostream& os, const std::optional<SchedEmbedResult>& e) {
  if (!e.has_value()) {
    os << "refused\n";
    return;
  }
  os << "roots_tried " << e->roots_tried << '\n';
  printCertificate(os, e->certificate);
}

TEST(EmbedPin, Mpeg2SixAuthorsFourMarks) {
  // The benchmark's embed parameters: min_size 4, min_eligible 2 and a
  // deadline three steps past the original critical path.
  const cdfg::Cdfg original = mpeg2();
  SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.deadline =
      sched::TimeFrames(original, params.latency).criticalPathSteps() + 3;
  const char* const expected[6] = {
      "c743a2ae4367bf9bd141e33b483e48699bdcec00880e03bfa13d8012a5001c95",
      "a98e5b6e3692ecd434f9ce8383cd0f0aa9d233ec5b9349ce458bdc9b94e9f6c9",
      "97941162742c3b1b1cf7af8323a6338090b6b4572df651e7293b6832654d9dd7",
      "7928c205f803a2c2e7bbe1f1ac3090045d5b656090ed7615873b4aa5b09b79fc",
      "a05f9986a389acc0ce8e1d8bf1b0e9c98f27760847a4dfd36e6d06a43ac371fa",
      "43772cdace4908e7ddc35d2288e98edb6ffa5dd1217cd5794838200162881c4f",
  };
  std::size_t marks = 0;
  for (std::size_t a = 0; a < 6; ++a) {
    const SchedulingWatermarker marker(
        crypto::AuthorSignature{"author-" + std::to_string(a), "mpeg2"});
    cdfg::Cdfg g = original;
    std::ostringstream os;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::optional<SchedEmbedResult> e = marker.embed(g, params, i);
      marks += e.has_value() ? 1u : 0u;
      printEmbed(os, e);
    }
    cdfg::print(os, g);
    EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(os.str())), expected[a])
        << "author-" << a;
  }
  EXPECT_EQ(marks, 24u);
}

TEST(EmbedPin, GlobalOnHyperDct8) {
  cdfg::Cdfg g = workloads::dct8();
  GlobalWmParams params;
  params.latency = sched::LatencyModel::hyperDefault();
  params.deadline =
      sched::TimeFrames(g, params.latency).criticalPathSteps() + 3;
  const std::optional<SchedEmbedResult> e =
      GlobalWatermarker(crypto::AuthorSignature{"alice", "dct8"})
          .embed(g, params);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->certificate.constraints.size(), 6u);
  std::ostringstream os;
  printEmbed(os, e);
  cdfg::print(os, g);
  EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(os.str())),
            "8c60064776fad2d7f05a918702114e145432baa5844d104542e50ccbcfbfcfb6");
}

}  // namespace
}  // namespace locwm::wm
