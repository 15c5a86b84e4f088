#include "scan/scan.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "core/pc.h"
#include "crypto/sha256.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "scan/fingerprint.h"
#include "sched/schedule_io.h"

namespace locwm::scan {

namespace fs = std::filesystem;

namespace {

/// Bumping this invalidates every cached fingerprint entry.
constexpr const char* kCacheFormat = "locwm-scanfp-entry v2";

std::string sha256Hex(const std::string& text) {
  return crypto::toHex(crypto::Sha256::hash(text));
}

/// Certificate-side screen data, computed once per ring entry and shared
/// by every design (the "certificate-side digest" of the pre-filter).
/// `root_kind` is set only for certificates that record their anchor's
/// canonical rank (sched/reg) — rooted tm certificates carry no root rank,
/// so they screen against every root regardless of kind.
struct CertScreen {
  KindFingerprint fp;
  /// Radius-1 fingerprint around the shape's anchor (certificates with a
  /// recorded root rank only) — the sharp per-root screen.
  std::optional<KindFingerprint> fp1;
  std::optional<cdfg::OpKind> root_kind;
  bool whole_design = false;
};

std::vector<CertScreen> buildScreens(const KeyRing& ring) {
  std::vector<CertScreen> screens;
  screens.reserve(ring.size());
  for (const KeyRingEntry& entry : ring.entries()) {
    CertScreen sc;
    switch (entry.kind) {
      case CertKind::kSched:
        sc.fp = shapeFingerprint(entry.sched->shape);
        sc.fp1 = fingerprintOfCounts(wm::anchorKindCounts(
            entry.sched->shape, entry.sched->root_rank, /*radius=*/1).back());
        sc.root_kind =
            entry.sched->shape.node(cdfg::NodeId(entry.sched->root_rank)).kind;
        break;
      case CertKind::kTm:
        sc.fp = shapeFingerprint(entry.tm->shape);
        sc.whole_design = entry.tm->whole_design;
        break;
      case CertKind::kReg:
        sc.fp = shapeFingerprint(entry.reg->shape);
        sc.fp1 = fingerprintOfCounts(wm::anchorKindCounts(
            entry.reg->shape, entry.reg->root_rank, /*radius=*/1).back());
        sc.root_kind =
            entry.reg->shape.node(cdfg::NodeId(entry.reg->root_rank)).kind;
        break;
    }
    screens.push_back(sc);
  }
  return screens;
}

/// The fingerprint-cache entry wraps the DesignIndex with the design's
/// lenient-parse issue count, so a warm re-scan reports the same `issues`
/// field without re-parsing.
struct CachedIndex {
  std::size_t issues = 0;
  DesignIndex index;
};

std::optional<CachedIndex> loadCachedIndex(const std::string& file,
                                           std::uint32_t radius) {
  std::ifstream is(file, std::ios::binary);
  if (!is) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  std::istringstream ls(text);
  std::string header;
  if (!std::getline(ls, header) || header != kCacheFormat) {
    return std::nullopt;
  }
  std::string issue_line;
  if (!std::getline(ls, issue_line)) {
    return std::nullopt;
  }
  std::istringstream il(issue_line);
  std::string word;
  CachedIndex cached;
  std::string trailing;
  if (!(il >> word >> cached.issues) || word != "issues" || (il >> trailing)) {
    return std::nullopt;
  }
  std::ostringstream rest;
  rest << ls.rdbuf();
  std::optional<DesignIndex> index = parseIndex(rest.str());
  if (!index.has_value() || index->radius != radius) {
    return std::nullopt;
  }
  cached.index = std::move(*index);
  return cached;
}

bool storeCachedIndex(const std::string& file, const CachedIndex& cached) {
  // Temp-file + rename, as in check/project.cpp: concurrent runs race
  // benignly (both write the same deterministic bytes).
  const std::string tmp = file + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      return false;
    }
    os << kCacheFormat << '\n'
       << "issues " << cached.issues << '\n'
       << indexToString(cached.index);
    if (!os) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, file, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

const char* cacheStateName(int state) {
  switch (state) {
    case 1:
      return "cold";
    case 2:
      return "warm";
    default:
      return "off";
  }
}

/// Per-item result slot, folded back serially in item order.
struct Slot {
  std::vector<std::string> rows;
  std::size_t pairs = 0;
  std::size_t pruned = 0;
  std::size_t survivors = 0;
  std::size_t candidates = 0;
  std::size_t matches = 0;
  bool parse_failure = false;
  int cache_state = 0;  // 0 off, 1 cold, 2 warm
  bool scanned = false;
};

std::string matchRow(const CorpusItem& item, const KeyRingEntry& entry,
                     bool found, const char* level, std::int64_t root,
                     std::size_t satisfied, std::size_t total,
                     std::size_t shape_matches) {
  std::string row = "{\"cert\":" + obs::jsonString(entry.cert_path) +
                    ",\"design\":" + obs::jsonString(item.path) +
                    ",\"found\":" + (found ? "true" : "false") +
                    ",\"identity\":" + obs::jsonString(entry.signature.identity) +
                    ",\"kind\":\"" + certKindName(entry.kind) +
                    "\",\"level\":\"" + level +
                    "\",\"root\":" + std::to_string(root) +
                    ",\"satisfied\":" + std::to_string(satisfied) +
                    ",\"shape_matches\":" + std::to_string(shape_matches) +
                    ",\"total\":" + std::to_string(total) + ",\"type\":\"match\"}";
  return row;
}

void scanOne(const CorpusItem& item, std::size_t index, const KeyRing& ring,
             const std::vector<CertScreen>& screens, std::uint32_t radius,
             const ScanOptions& options, Slot& s) {
  LOCWM_OBS_LATENCY("scan.design.latency_ns");
  s.scanned = true;

  // Fingerprint cache probe — keyed by everything the entry depends on.
  std::string cache_file;
  std::optional<CachedIndex> cached;
  if (options.prefilter && !options.cache_dir.empty()) {
    const std::string key =
        sha256Hex(std::string(kCacheFormat) + "\n" + std::to_string(radius) +
                  "\n" + item.path + "\n" + sha256Hex(item.design_text));
    cache_file = (fs::path(options.cache_dir) / ("scanfp-" + key.substr(0, 32)))
                     .string();
    cached = loadCachedIndex(cache_file, radius);
  }

  std::optional<cdfg::Cdfg> parsed;
  std::optional<wm::LocalityDeriver> deriver;
  std::vector<cdfg::ParseIssue> issues;
  std::string parse_error;
  const auto ensureLowered = [&]() -> bool {
    if (deriver.has_value()) {
      return true;
    }
    if (!parse_error.empty()) {
      return false;
    }
    try {
      parsed = cdfg::parseString(item.design_text, issues, item.path);
    } catch (const Error& e) {
      parse_error = e.what();
      return false;
    }
    deriver.emplace(*parsed);
    return true;
  };
  const auto emitErrorRow = [&]() {
    s.parse_failure = true;
    s.rows.push_back("{\"design\":" + obs::jsonString(item.path) +
                     ",\"error\":" + obs::jsonString(parse_error) +
                     ",\"index\":" + std::to_string(index) +
                     ",\"type\":\"design\"}");
  };

  std::optional<DesignIndex> fp_index;
  std::size_t issue_count = 0;
  if (options.prefilter) {
    if (cached.has_value()) {
      s.cache_state = 2;
      issue_count = cached->issues;
      fp_index = std::move(cached->index);
    } else {
      if (!ensureLowered()) {
        emitErrorRow();
        return;
      }
      fp_index = buildDesignIndex(*deriver, radius);
      issue_count = issues.size();
      if (!cache_file.empty()) {
        s.cache_state = 1;
        storeCachedIndex(cache_file, CachedIndex{issue_count, *fp_index});
      }
    }
  } else {
    if (!ensureLowered()) {
      emitErrorRow();
      return;
    }
    issue_count = issues.size();
  }

  // Lazy per-design state shared by replay: the schedule (parsed at most
  // once) and, with the pre-filter off, the full candidate-root list.
  std::optional<sched::Schedule> schedule;
  bool schedule_tried = false;
  const auto ensureSchedule = [&]() -> const sched::Schedule* {
    if (!schedule_tried) {
      schedule_tried = true;
      if (!item.schedule_text.empty() && parsed.has_value()) {
        try {
          std::istringstream is(item.schedule_text);
          std::vector<sched::ScheduleParseIssue> sched_issues;
          schedule = sched::parseSchedule(is, parsed->nodeCount(), sched_issues,
                                          item.schedule_path);
        } catch (const Error&) {
          schedule.reset();  // fall back to shape-level evidence
        }
      }
    }
    return schedule.has_value() ? &*schedule : nullptr;
  };
  std::optional<std::vector<cdfg::NodeId>> all_roots;
  const auto allRoots = [&]() -> const std::vector<cdfg::NodeId>& {
    if (!all_roots.has_value()) {
      all_roots = deriver->candidateRoots();
    }
    return *all_roots;
  };

  std::vector<std::string> match_rows;
  std::vector<wm::WatermarkCertificate> pc_certs;
  for (std::size_t j = 0; j < ring.size(); ++j) {
    const KeyRingEntry& entry = ring.entries()[j];
    const CertScreen& sc = screens[j];
    ++s.pairs;

    // Screen: O(1) on the design-level aggregate, then per-root subset
    // tests to collect the candidate roots exact replay may visit.
    std::vector<cdfg::NodeId> candidates;
    if (options.prefilter) {
      bool survives = false;
      if (sc.whole_design) {
        survives = fp_index->design_fp.covers(sc.fp);
      } else {
        // Design-level screen first: the per-kind union for anchored
        // certificates; the whole-design fingerprint (a superset of every
        // fanin ball) for unanchored ones.
        const bool design_level =
            sc.root_kind.has_value()
                ? fp_index
                      ->kind_union[static_cast<std::size_t>(*sc.root_kind)]
                      .covers(sc.fp)
                : fp_index->design_fp.covers(sc.fp);
        if (design_level) {
          for (std::size_t k = 0; k < fp_index->roots.size(); ++k) {
            if (sc.root_kind.has_value() &&
                fp_index->root_kinds[k] !=
                    static_cast<std::uint8_t>(*sc.root_kind)) {
              continue;
            }
            if (fp_index->root_fps[k].covers(sc.fp) &&
                (!sc.fp1.has_value() ||
                 fp_index->root_fps1[k].covers(*sc.fp1))) {
              candidates.push_back(fp_index->roots[k]);
            }
          }
          survives = !candidates.empty();
        }
      }
      if (!survives) {
        ++s.pruned;
        continue;
      }
    }
    ++s.survivors;
    if (!ensureLowered()) {
      emitErrorRow();
      return;
    }
    if (!options.prefilter && !sc.whole_design) {
      candidates = allRoots();
    }
    s.candidates += sc.whole_design ? 1 : candidates.size();

    // Exact replay at the surviving roots.
    switch (entry.kind) {
      case CertKind::kSched: {
        const wm::WatermarkCertificate& cert = *entry.sched;
        const wm::SchedDetector det(entry.signature, *deriver, cert,
                                    candidates);
        if (det.shapeMatches() == 0) {
          break;
        }
        ++s.matches;
        if (const sched::Schedule* sch = ensureSchedule()) {
          const wm::SchedDetectResult r = det.check(*sch);
          match_rows.push_back(matchRow(item, entry, r.found, "schedule",
                                        r.root.value(), r.satisfied, r.total,
                                        r.shape_matches));
          if (r.found) {
            pc_certs.push_back(cert);
          }
        } else {
          match_rows.push_back(matchRow(item, entry, true, "shape",
                                        det.matches().front().root.value(), 0,
                                        0, det.shapeMatches()));
        }
        break;
      }
      case CertKind::kTm: {
        const wm::TmCertificate& cert = *entry.tm;
        if (cert.whole_design) {
          const std::optional<wm::Locality> loc =
              deriver->wholeDesign(cert.locality_params.min_size);
          if (loc.has_value() && wm::shapeEquals(loc->shape, cert.shape)) {
            ++s.matches;
            match_rows.push_back(
                matchRow(item, entry, true, "shape", -1, 0, 0, 1));
          }
          break;
        }
        const std::vector<wm::ShapeHit> hits = wm::scanShapeMatches(
            *deriver, entry.signature, cert.context, cert.locality_params,
            cert.shape, candidates);
        if (!hits.empty()) {
          ++s.matches;
          match_rows.push_back(matchRow(item, entry, true, "shape",
                                        hits.front().root.value(), 0, 0,
                                        hits.size()));
        }
        break;
      }
      case CertKind::kReg: {
        const wm::RegCertificate& cert = *entry.reg;
        const std::vector<wm::ShapeHit> hits = wm::scanShapeMatches(
            *deriver, entry.signature, cert.context, cert.locality_params,
            cert.shape, candidates);
        if (!hits.empty()) {
          ++s.matches;
          match_rows.push_back(matchRow(item, entry, true, "shape",
                                        hits.front().root.value(), 0, 0,
                                        hits.size()));
        }
        break;
      }
    }
  }

  // Aggregate authorship proof over the fully-matched scheduling
  // certificates (deadline slack 1, budgeted — see ScanOptions).
  std::string pc = "null";
  if (!pc_certs.empty()) {
    const wm::AggregatePc agg = wm::aggregateSchedulingPc(
        pc_certs, /*deadline_slack=*/1, options.pc_max_steps);
    if (agg.failed < pc_certs.size()) {
      pc = obs::jsonNumber(agg.combined.log10_pc);
    }
  }

  s.rows.push_back(
      "{\"cache\":\"" + std::string(cacheStateName(s.cache_state)) +
      "\",\"candidates\":" + std::to_string(s.candidates) +
      ",\"certs\":" + std::to_string(ring.size()) +
      ",\"design\":" + obs::jsonString(item.path) +
      ",\"index\":" + std::to_string(index) +
      ",\"issues\":" + std::to_string(issue_count) +
      ",\"matches\":" + std::to_string(s.matches) + ",\"pc_log10\":" + pc +
      ",\"pruned\":" + std::to_string(s.pruned) +
      ",\"survivors\":" + std::to_string(s.survivors) + ",\"type\":\"design\"}");
  for (std::string& row : match_rows) {
    s.rows.push_back(std::move(row));
  }
}

}  // namespace

ScanResult scanCorpus(const std::vector<CorpusItem>& items,
                      const KeyRing& ring, const ScanOptions& options) {
  LOCWM_OBS_SPAN("scan.corpus");
  const std::uint32_t shard_count = std::max<std::uint32_t>(1, options.shard_count);
  detail::check<Error>(options.shard_index < shard_count,
                       "scan: shard index out of range");
  // One design-side radius, sound for every certificate in the ring.
  const std::uint32_t radius = std::max<std::uint32_t>(1, ring.maxRadius());
  const std::vector<CertScreen> screens = buildScreens(ring);
  if (options.prefilter && !options.cache_dir.empty()) {
    fs::create_directories(options.cache_dir);
  }

  std::vector<Slot> slots(items.size());
  rt::parallel_for(0, items.size(), /*grain=*/1, [&](std::size_t i) {
    if (i % shard_count != options.shard_index) {
      return;
    }
    scanOne(items[i], i, ring, screens, radius, options, slots[i]);
  });

  // Serial fold in item order: byte-identical rows and stats at any
  // thread count.
  ScanResult out;
  for (Slot& s : slots) {
    if (!s.scanned) {
      continue;
    }
    ++out.stats.designs;
    out.stats.pairs += s.pairs;
    out.stats.pruned_pairs += s.pruned;
    out.stats.survivor_pairs += s.survivors;
    out.stats.candidate_roots += s.candidates;
    out.stats.match_pairs += s.matches;
    out.stats.parse_failures += s.parse_failure ? 1 : 0;
    out.stats.cache_cold += s.cache_state == 1 ? 1 : 0;
    out.stats.cache_warm += s.cache_state == 2 ? 1 : 0;
    for (std::string& row : s.rows) {
      out.rows.push_back(std::move(row));
    }
  }
  LOCWM_OBS_COUNT("scan.designs", out.stats.designs);
  LOCWM_OBS_COUNT("scan.pairs", out.stats.pairs);
  LOCWM_OBS_COUNT("scan.prefilter.pruned", out.stats.pruned_pairs);
  LOCWM_OBS_COUNT("scan.prefilter.survivors", out.stats.survivor_pairs);
  LOCWM_OBS_COUNT("scan.prefilter.candidate_roots", out.stats.candidate_roots);
  LOCWM_OBS_COUNT("scan.matches", out.stats.match_pairs);
  LOCWM_OBS_COUNT("scan.parse_failures", out.stats.parse_failures);
  LOCWM_OBS_COUNT("scan.cache.cold", out.stats.cache_cold);
  LOCWM_OBS_COUNT("scan.cache.warm", out.stats.cache_warm);
  return out;
}

}  // namespace locwm::scan
