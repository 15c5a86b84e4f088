#include "core/reg_wm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cdfg/error.h"
#include "core/pass_audit.h"
#include "obs/obs.h"
#include "regbind/lifetime.h"

namespace locwm::wm {

using cdfg::NodeId;

std::optional<RegEmbedResult> RegisterWatermarker::embed(
    const cdfg::Cdfg& g, const sched::Schedule& s, const RegWmParams& params,
    std::size_t index) const {
  LOCWM_OBS_SPAN("core.reg_wm.embed");
  const std::string context = "reg-wm/" + std::to_string(index);
  crypto::KeyedBitstream root_bits(signature_, context + "/root");

  const regbind::LifetimeTable table =
      regbind::computeLifetimes(g, s, params.latency);

  const LocalityDeriver deriver(g);
  const std::vector<NodeId> roots = deriver.candidateRoots();
  if (roots.empty()) {
    return std::nullopt;
  }

  for (std::size_t attempt = 0; attempt < params.max_root_retries; ++attempt) {
    const NodeId root = roots[root_bits.below(roots.size())];
    crypto::KeyedBitstream carve_bits(signature_, context + "/carve");
    std::optional<Locality> loc =
        deriver.derive(root, params.locality, carve_bits);
    if (!loc) {
      continue;
    }

    // Usable values: locality members that produce a register value.
    std::vector<std::uint32_t> value_ranks;
    for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
      if (table.produces(loc->nodes[r])) {
        value_ranks.push_back(r);
      }
    }
    if (value_ranks.size() < params.min_values) {
      continue;
    }

    const std::size_t k = params.k_explicit.value_or(std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               params.k_fraction *
               static_cast<double>(value_ranks.size())))));

    // Union-find over ranks so transitive alias groups stay conflict-free.
    std::vector<std::uint32_t> parent(loc->nodes.size());
    std::iota(parent.begin(), parent.end(), 0u);
    auto find = [&](std::uint32_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    auto groupCompatible = [&](std::uint32_t ra, std::uint32_t rb) {
      // Every member of ra's group must be lifetime-disjoint from every
      // member of rb's group.
      const std::uint32_t pa = find(ra);
      const std::uint32_t pb = find(rb);
      for (const std::uint32_t x : value_ranks) {
        if (find(x) != pa) {
          continue;
        }
        for (const std::uint32_t y : value_ranks) {
          if (find(y) != pb) {
            continue;
          }
          if (table.of(loc->nodes[x]).overlaps(table.of(loc->nodes[y]))) {
            return false;
          }
        }
      }
      return true;
    };

    crypto::KeyedBitstream encode_bits(signature_, context + "/encode");
    RegEmbedResult result;
    result.roots_tried = attempt + 1;

    std::vector<std::uint32_t> pool = value_ranks;
    while (result.certificate.pairs.size() < k && pool.size() >= 2) {
      const std::size_t idx = encode_bits.below(pool.size());
      const std::uint32_t ra = pool[idx];
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));

      std::vector<std::uint32_t> partners;
      for (const std::uint32_t rb : value_ranks) {
        if (rb == ra || find(rb) == find(ra)) {
          continue;
        }
        if (groupCompatible(ra, rb)) {
          partners.push_back(rb);
        }
      }
      if (partners.empty()) {
        continue;
      }
      const std::uint32_t rb = partners[encode_bits.below(partners.size())];
      parent[find(ra)] = find(rb);
      result.certificate.pairs.push_back(RankConstraint{ra, rb});
      result.aliases.push_back({loc->nodes[ra], loc->nodes[rb]});
    }
    if (result.certificate.pairs.empty()) {
      continue;
    }

    result.certificate.context = context;
    result.certificate.locality_params = params.locality;
    result.certificate.shape = loc->shape;
    for (std::uint32_t r = 0; r < loc->nodes.size(); ++r) {
      if (loc->nodes[r] == loc->root) {
        result.certificate.root_rank = r;
      }
    }
    result.locality = std::move(*loc);
    LOCWM_OBS_COUNT("core.reg_wm.embeds", 1);
    LOCWM_OBS_COUNT("core.reg_wm.pairs_encoded",
                    result.certificate.pairs.size());
    auditCertificate("reg-wm/embed", result.certificate);
    return result;
  }
  LOCWM_OBS_COUNT("core.reg_wm.embed_failures", 1);
  return std::nullopt;
}

RegDetectResult RegisterWatermarker::detect(
    const cdfg::Cdfg& suspect, const regbind::LifetimeTable& table,
    const regbind::Binding& binding, const RegCertificate& certificate) const {
  LOCWM_OBS_SPAN("core.reg_wm.detect");
  auditCertificate("reg-wm/detect", certificate);
  RegDetectResult best;
  best.total = certificate.pairs.size();
  best.root = NodeId::invalid();

  const LocalityDeriver deriver(suspect);
  // Hits arrive in root order, so the first root with the most shared
  // pairs wins, as in a serial scan.
  for (const ShapeHit& hit : scanShapeMatches(
           deriver, signature_, certificate.context,
           certificate.locality_params, certificate.shape,
           deriver.candidateRoots())) {
    std::size_t shared = 0;
    for (const RankConstraint& c : certificate.pairs) {
      const NodeId a = hit.nodes[c.before_rank];
      const NodeId b = hit.nodes[c.after_rank];
      if (table.produces(a) && table.produces(b) &&
          binding.of(table, a) == binding.of(table, b)) {
        ++shared;
      }
    }
    ++best.shape_matches;
    if (shared > best.shared || !best.root.isValid()) {
      best.shared = shared;
      best.root = hit.root;
    }
  }
  best.found =
      best.root.isValid() && best.shared == best.total && best.total > 0;
  return best;
}

double approxBindingLog10Pc(std::size_t pairs, std::uint32_t register_count) {
  detail::check(register_count > 0, "approxBindingLog10Pc: no registers");
  if (register_count == 1) {
    return 0.0;  // everything shares trivially
  }
  return -static_cast<double>(pairs) *
         std::log10(static_cast<double>(register_count));
}

}  // namespace locwm::wm
