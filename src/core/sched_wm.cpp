#include "core/sched_wm.h"

#include <algorithm>
#include <cmath>

#include "cdfg/analysis.h"
#include "cdfg/error.h"
#include "core/pass_audit.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "sched/timeframes.h"

namespace locwm::wm {

using cdfg::NodeId;

namespace {

/// Marks `from` and every node a path of live edges (temporal ones
/// included) connects to it, in either direction: one descendant walk and
/// one ancestor walk.  It reads the live builder, not a CSR snapshot, so
/// the temporal edges committed a moment ago count.  In a DAG no ancestor
/// is a descendant, so the two walks can share one mark vector.
void markOrdered(const cdfg::Cdfg& g, NodeId from, std::vector<bool>& ordered) {
  ordered.assign(g.nodeCount(), false);
  ordered[from.value()] = true;
  std::vector<NodeId> stack;
  for (const bool forward : {true, false}) {
    stack.push_back(from);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const cdfg::EdgeId e : forward ? g.outEdges(v) : g.inEdges(v)) {
        const NodeId w = forward ? g.edge(e).dst : g.edge(e).src;
        if (!ordered[w.value()]) {
          ordered[w.value()] = true;
          stack.push_back(w);
        }
      }
    }
  }
}

}  // namespace

void encodeTemporalConstraints(cdfg::Cdfg& g, const sched::LatencyModel& lat,
                               sched::TimeFrames& frames,
                               const std::vector<NodeId>& nodes,
                               const std::vector<std::uint32_t>& eligible,
                               std::size_t k, crypto::KeyedBitstream& bits,
                               SchedEmbedResult& result) {
  // T'' is a pseudorandomly ordered selection of source nodes; each source
  // is paired with a pseudorandom overlapping partner from T' and a
  // temporal edge is drawn.  Sources that have no usable partner are
  // discarded and replaced from the remaining pool, so the watermark
  // reaches K edges whenever the locality allows it.
  std::vector<std::uint32_t> pool = eligible;
  std::vector<bool> ordered;
  while (result.certificate.constraints.size() < k && !pool.empty()) {
    const std::size_t idx = bits.below(pool.size());
    const std::uint32_t r = pool[idx];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));

    // A partner may share a step with the source, and the deadline must
    // stay attainable with the partner after it...
    const NodeId ni = nodes[r];
    std::vector<std::uint32_t> partners;
    for (const std::uint32_t other : eligible) {
      const NodeId nk = nodes[other];
      if (other != r && frames.lifetimesOverlap(ni, nk) &&
          frames.asap(ni) + 1 <= frames.alap(nk)) {
        partners.push_back(other);
      }
    }
    // ...and the edge must be new information: no order already implied
    // in either direction (which also rules out a cycle).
    if (!partners.empty()) {
      markOrdered(g, ni, ordered);
      std::erase_if(partners, [&](std::uint32_t other) {
        return ordered[nodes[other].value()];
      });
    }
    if (partners.empty()) {
      continue;
    }
    const std::uint32_t pick = partners[bits.below(partners.size())];
    const cdfg::EdgeId added =
        g.addEdge(ni, nodes[pick], cdfg::EdgeKind::kTemporal);
    result.added_edges.push_back(added);
    result.certificate.constraints.push_back(RankConstraint{r, pick});
    // Frames tighten with every committed constraint.
    frames.addEdge(g, lat, added);
  }
}

cdfg::Cdfg realizeWithDummyOps(const cdfg::Cdfg& marked,
                               std::vector<NodeId>* dummies) {
  cdfg::Cdfg out;
  for (const NodeId v : marked.allNodes()) {
    out.addNode(marked.node(v).kind, marked.node(v).name);
  }
  std::size_t dummy_index = 0;
  for (const cdfg::EdgeId e : marked.allEdges()) {
    const cdfg::Edge& ed = marked.edge(e);
    if (ed.kind != cdfg::EdgeKind::kTemporal) {
      out.addEdge(ed.src, ed.dst, ed.kind);
      continue;
    }
    const NodeId dummy = out.addNode(
        cdfg::OpKind::kAdd, "wm" + std::to_string(dummy_index++));
    out.addEdge(ed.src, dummy, cdfg::EdgeKind::kData);
    out.addEdge(dummy, ed.dst, cdfg::EdgeKind::kData);
    if (dummies != nullptr) {
      dummies->push_back(dummy);
    }
  }
  return out;
}

cdfg::Cdfg stripRealizedDummies(const cdfg::Cdfg& realized,
                                const std::vector<NodeId>& dummies) {
  std::vector<bool> is_dummy(realized.nodeCount(), false);
  for (const NodeId d : dummies) {
    detail::check<WatermarkError>(
        d.isValid() && d.value() < realized.nodeCount(),
        "stripRealizedDummies: id out of range");
    is_dummy[d.value()] = true;
  }
  cdfg::Cdfg out;
  std::vector<NodeId> map(realized.nodeCount(), NodeId::invalid());
  for (const NodeId v : realized.allNodes()) {
    if (!is_dummy[v.value()]) {
      map[v.value()] =
          out.addNode(realized.node(v).kind, realized.node(v).name);
    }
  }
  for (const cdfg::EdgeId e : realized.allEdges()) {
    const cdfg::Edge& ed = realized.edge(e);
    if (is_dummy[ed.dst.value()]) {
      continue;  // handled from the dummy's outgoing side
    }
    if (!is_dummy[ed.src.value()]) {
      out.addEdge(map[ed.src.value()], map[ed.dst.value()], ed.kind);
      continue;
    }
    // Edge leaves a dummy: the watermark's order constraint was realized
    // through it, so the reconnection is dropped entirely — the shipped
    // program contains only the original dependences.
  }
  return out;
}

std::optional<SchedEmbedResult> SchedulingWatermarker::embed(
    cdfg::Cdfg& g, const SchedWmParams& params, std::size_t index) const {
  LOCWM_OBS_SPAN("core.sched_wm.embed");
  const std::string context = "sched-wm/" + std::to_string(index);
  crypto::KeyedBitstream root_bits(signature_, context + "/root");

  const LocalityDeriver deriver(g);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  if (roots.empty()) {
    return std::nullopt;
  }

  // Whole-design analyses, once per call.  An attempt that commits no
  // temporal edge leaves `g` unchanged, and StructuralAnalysis ignores
  // temporal edges anyway; only the frames move, re-timed per edge.  The
  // frames read the deriver's snapshot of `g`, taken before any edge of
  // this call was added.
  const sched::LatencyModel& lat = params.latency;
  sched::TimeFrames frames = [&] {
    LOCWM_OBS_SPAN("core.sched_wm.eligibility");
    return sched::TimeFrames(deriver.csr(), lat, params.deadline,
                             /*includeTemporal=*/true);
  }();
  const cdfg::StructuralAnalysis analysis = [&] {
    LOCWM_OBS_SPAN("core.sched_wm.eligibility");
    return cdfg::StructuralAnalysis(g);
  }();
  // The paper's laxity bound C·(1−α), and the deadline-relative fallback
  // below: the node's mobility must retain an α share of the granted
  // slack.
  const double laxity_bound =
      (1.0 - params.alpha) *
      static_cast<double>(analysis.criticalPathLength());
  const double slack_budget =
      static_cast<double>(frames.deadline() - frames.criticalPathSteps());
  const double mobility_floor = std::max(1.0, params.alpha * slack_budget);

  for (std::size_t attempt = 0; attempt < params.max_root_retries; ++attempt) {
    LOCWM_OBS_COUNT("core.sched_wm.roots_tried", 1);
    const NodeId root = roots[root_bits.below(roots.size())];
    crypto::KeyedBitstream carve_bits(signature_, context + "/carve");
    std::optional<Locality> loc =
        deriver.derive(root, params.locality, carve_bits);
    if (!loc) {
      continue;
    }

    // Eligibility (the paper's T').  The paper requires laxity ≤ C·(1−α):
    // every selected node must sit a margin off the critical path.  We
    // apply that structural criterion first; on tightly serial designs it
    // can empty the pool (the whole locality is near-critical), in which
    // case we fall back to the deadline-relative rule, which still
    // excludes the inflexible nodes while keeping such designs markable.
    // Either way each node additionally needs a lifetime-overlap partner
    // among the eligible set.
    std::vector<std::uint32_t> eligible_ranks;
    {
      LOCWM_OBS_SPAN("core.sched_wm.eligibility");
      for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
        const NodeId n = loc->nodes[r];
        if (frames.mobility(n) >= 1 &&
            static_cast<double>(analysis.laxity(n)) <= laxity_bound) {
          eligible_ranks.push_back(r);
        }
      }
      if (eligible_ranks.size() < params.min_eligible) {
        eligible_ranks.clear();
        for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
          const NodeId n = loc->nodes[r];
          if (static_cast<double>(frames.mobility(n)) >= mobility_floor) {
            eligible_ranks.push_back(r);
          }
        }
      }
      std::vector<std::uint32_t> with_partner;
      for (const std::uint32_t r : eligible_ranks) {
        const bool has_partner = std::any_of(
            eligible_ranks.begin(), eligible_ranks.end(),
            [&](std::uint32_t other) {
              return other != r && frames.lifetimesOverlap(
                                       loc->nodes[r], loc->nodes[other]);
            });
        if (has_partner) {
          with_partner.push_back(r);
        }
      }
      eligible_ranks = std::move(with_partner);
    }
    if (eligible_ranks.size() < params.min_eligible) {
      continue;
    }

    const std::size_t k =
        params.k_explicit.value_or(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(
                   params.k_fraction *
                   static_cast<double>(eligible_ranks.size())))));

    crypto::KeyedBitstream encode_bits(signature_, context + "/encode");
    SchedEmbedResult result;
    result.roots_tried = attempt + 1;
    {
      LOCWM_OBS_SPAN("core.sched_wm.encode");
      encodeTemporalConstraints(g, lat, frames, loc->nodes, eligible_ranks,
                                k, encode_bits, result);
    }

    if (result.certificate.constraints.empty()) {
      continue;  // locality carried no encodable constraint; re-select
    }

    result.certificate.context = context;
    result.certificate.locality_params = params.locality;
    result.certificate.shape = loc->shape;
    for (std::uint32_t rank = 0; rank < loc->nodes.size(); ++rank) {
      if (loc->nodes[rank] == loc->root) {
        result.certificate.root_rank = rank;
      }
    }
    result.locality = std::move(*loc);
    LOCWM_OBS_COUNT("core.sched_wm.embeds", 1);
    LOCWM_OBS_COUNT("core.sched_wm.constraints_added",
                    result.certificate.constraints.size());
    auditGraph("sched-wm/embed", g);
    auditCertificate("sched-wm/embed", result.certificate);
    return result;
  }
  LOCWM_OBS_COUNT("core.sched_wm.embed_failures", 1);
  return std::nullopt;
}

std::vector<SchedEmbedResult> SchedulingWatermarker::embedMany(
    cdfg::Cdfg& g, std::size_t count, const SchedWmParams& params) const {
  std::vector<SchedEmbedResult> results;
  for (std::size_t i = 0; i < count; ++i) {
    if (auto r = embed(g, params, i)) {
      results.push_back(std::move(*r));
    }
  }
  return results;
}

SchedDetectResult SchedulingWatermarker::detect(
    const cdfg::Cdfg& suspect, const sched::Schedule& schedule,
    const WatermarkCertificate& certificate) const {
  auditCertificate("sched-wm/detect", certificate);
  return SchedDetector(*this, suspect, certificate).check(schedule);
}

SchedDetector::SchedDetector(const SchedulingWatermarker& marker,
                             const cdfg::Cdfg& suspect,
                             const WatermarkCertificate& certificate)
    : certificate_(&certificate) {
  LOCWM_OBS_SPAN("core.sched_wm.detect_scan");
  const LocalityDeriver deriver(suspect);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  LOCWM_OBS_COUNT("core.sched_wm.detect_roots_scanned", roots.size());
  matches_ = scanShapeMatches(deriver, marker.signature(), certificate.context,
                              certificate.locality_params, certificate.shape,
                              roots);
  LOCWM_OBS_COUNT("core.sched_wm.detect_shape_matches", matches_.size());
}

SchedDetector::SchedDetector(const crypto::AuthorSignature& signature,
                             const LocalityDeriver& deriver,
                             const WatermarkCertificate& certificate,
                             const std::vector<NodeId>& roots)
    : certificate_(&certificate) {
  LOCWM_OBS_SPAN("core.sched_wm.detect_scan");
  LOCWM_OBS_COUNT("core.sched_wm.detect_roots_scanned", roots.size());
  matches_ = scanShapeMatches(deriver, signature, certificate.context,
                              certificate.locality_params, certificate.shape,
                              roots);
  LOCWM_OBS_COUNT("core.sched_wm.detect_shape_matches", matches_.size());
}

SchedDetectResult SchedDetector::check(const sched::Schedule& schedule) const {
  SchedDetectResult best;
  best.total = certificate_->constraints.size();
  best.root = NodeId::invalid();
  best.shape_matches = matches_.size();
  for (const ShapeHit& m : matches_) {
    std::size_t satisfied = 0;
    for (const RankConstraint& c : certificate_->constraints) {
      const NodeId before = m.nodes[c.before_rank];
      const NodeId after = m.nodes[c.after_rank];
      if (schedule.isSet(before) && schedule.isSet(after) &&
          schedule.at(before) < schedule.at(after)) {
        ++satisfied;
      }
    }
    if (satisfied > best.satisfied || !best.root.isValid()) {
      best.satisfied = satisfied;
      best.root = m.root;
    }
  }
  best.found = best.root.isValid() && best.satisfied == best.total &&
               best.total > 0;
  return best;
}

}  // namespace locwm::wm
