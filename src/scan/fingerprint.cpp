#include "scan/fingerprint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/obs.h"
#include "rt/rt.h"

namespace locwm::scan {

namespace {

constexpr std::array<std::uint32_t, 6> kThresholds{1, 2, 3, 4, 6, 8};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

bool parseHex64(const std::string& token, std::uint64_t& out) {
  if (token.size() != 16) {
    return false;
  }
  std::uint64_t v = 0;
  for (const char c : token) {
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  out = v;
  return true;
}

}  // namespace

KindFingerprint fingerprintOfCounts(
    const std::array<std::uint32_t, cdfg::kOpKindCount>& counts) noexcept {
  KindFingerprint fp;
  for (std::size_t kind = 0; kind < cdfg::kOpKindCount; ++kind) {
    for (std::size_t t = 0; t < kThresholds.size(); ++t) {
      if (counts[kind] >= kThresholds[t]) {
        const std::size_t bit = kind * kThresholds.size() + t;
        fp.bits[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      }
    }
  }
  return fp;
}

KindFingerprint shapeFingerprint(const cdfg::Cdfg& shape) {
  return fingerprintOfCounts(wm::shapeKindCounts(shape));
}

DesignIndex buildDesignIndex(const wm::LocalityDeriver& deriver,
                             std::uint32_t radius) {
  LOCWM_OBS_LATENCY("scan.fingerprint.build_ns");
  DesignIndex index;
  index.radius = radius;
  index.roots = deriver.candidateRoots();
  index.root_kinds.resize(index.roots.size());
  index.root_fps.resize(index.roots.size());
  index.root_fps1.resize(index.roots.size());
  rt::parallel_for(0, index.roots.size(), /*grain=*/8, [&](std::size_t i) {
    const cdfg::NodeId root = index.roots[i];
    index.root_kinds[i] =
        static_cast<std::uint8_t>(deriver.csr().kind(root));
    // One walk serves both radii; a short result means the ball stopped
    // growing, so back() stands for every larger radius.
    const std::vector<wm::KindCounts> balls =
        deriver.faninKindCounts(root, std::max<std::uint32_t>(radius, 1));
    const auto ball = [&](std::uint32_t k) {
      return balls[std::min<std::size_t>(k, balls.size() - 1)];
    };
    index.root_fps[i] = fingerprintOfCounts(ball(radius));
    index.root_fps1[i] = fingerprintOfCounts(ball(1));
  });
  for (std::size_t i = 0; i < index.roots.size(); ++i) {
    index.kind_union[index.root_kinds[i]].merge(index.root_fps[i]);
  }
  index.design_fp = fingerprintOfCounts(deriver.realKindCounts());
  LOCWM_OBS_COUNT("scan.fingerprint.roots", index.roots.size());
  return index;
}

std::string indexToString(const DesignIndex& index) {
  std::ostringstream os;
  os << "locwm-scanfp v2\n";
  os << "radius " << index.radius << '\n';
  os << "design " << hex64(index.design_fp.bits[0]) << ' '
     << hex64(index.design_fp.bits[1]) << '\n';
  for (std::size_t i = 0; i < index.roots.size(); ++i) {
    os << "root " << index.roots[i].value() << ' '
       << static_cast<std::uint32_t>(index.root_kinds[i]) << ' '
       << hex64(index.root_fps[i].bits[0]) << ' '
       << hex64(index.root_fps[i].bits[1]) << ' '
       << hex64(index.root_fps1[i].bits[0]) << ' '
       << hex64(index.root_fps1[i].bits[1]) << '\n';
  }
  return os.str();
}

std::optional<DesignIndex> parseIndex(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "locwm-scanfp v2") {
    return std::nullopt;
  }
  DesignIndex index;
  bool have_radius = false;
  bool have_design = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) {
      return std::nullopt;  // blank lines are not part of the format
    }
    std::string trailing;
    if (word == "radius") {
      if (have_radius || !(ls >> index.radius) || (ls >> trailing)) {
        return std::nullopt;
      }
      have_radius = true;
    } else if (word == "design") {
      std::string w0;
      std::string w1;
      if (have_design || !(ls >> w0 >> w1) || (ls >> trailing) ||
          !parseHex64(w0, index.design_fp.bits[0]) ||
          !parseHex64(w1, index.design_fp.bits[1])) {
        return std::nullopt;
      }
      have_design = true;
    } else if (word == "root") {
      std::uint32_t id = 0;
      std::uint32_t kind = 0;
      std::string w0;
      std::string w1;
      std::string r0;
      std::string r1;
      KindFingerprint fp;
      KindFingerprint fp1;
      if (!(ls >> id >> kind >> w0 >> w1 >> r0 >> r1) || (ls >> trailing) ||
          kind >= cdfg::kOpKindCount || !parseHex64(w0, fp.bits[0]) ||
          !parseHex64(w1, fp.bits[1]) || !parseHex64(r0, fp1.bits[0]) ||
          !parseHex64(r1, fp1.bits[1])) {
        return std::nullopt;
      }
      if (!index.roots.empty() && index.roots.back().value() >= id) {
        return std::nullopt;  // roots must be strictly ascending
      }
      index.roots.push_back(cdfg::NodeId(id));
      index.root_kinds.push_back(static_cast<std::uint8_t>(kind));
      index.root_fps.push_back(fp);
      index.root_fps1.push_back(fp1);
    } else {
      return std::nullopt;
    }
  }
  if (!have_radius || !have_design) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < index.roots.size(); ++i) {
    index.kind_union[index.root_kinds[i]].merge(index.root_fps[i]);
  }
  return index;
}

}  // namespace locwm::scan
