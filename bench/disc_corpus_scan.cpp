// DISC-CORPUS-SCAN — fleet-scale corpus scanning (ROADMAP item 2): scan a
// generated corpus of random designs against a key ring of scheduling
// certificates, with and without the locality-fingerprint pre-filter.
// Reports designs/sec for both modes, the speedup, screen precision, and
// two recall figures: against the planted ground truth and against the
// exact-only scan (both must be 1.0 — the screen is sound).  Both modes
// replay through wm::scanShapeMatches, which screens every root before
// deriving, so the speedup measures only what the pre-filter adds: pairs
// pruned before a design is parsed and lowered.  Not a paper table; the
// acceptance run is 1000 designs x 100 certificates.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "rt/rt.h"
#include "scan/corpus.h"
#include "scan/scan.h"

namespace {

using namespace locwm;

double millisSince(std::chrono::steady_clock::time_point start) {
  const auto d = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(d).count();
}

std::size_t sizeArg(int argc, char** argv, const char* flag,
                    std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

const char* stringArg(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

/// (design path, cert path) pairs of the `match` rows, plus how many were
/// fully `found`.  Rows are the scanner's own JSON; the fields are pulled
/// positionally from the fixed key order the scanner emits.
std::vector<std::pair<std::string, std::string>> matchPairs(
    const std::vector<std::string>& rows) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& row : rows) {
    if (row.find("\"type\":\"match\"") == std::string::npos) {
      continue;
    }
    const auto field = [&](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\":\"";
      const std::size_t at = row.find(needle);
      if (at == std::string::npos) {
        return {};
      }
      const std::size_t from = at + needle.size();
      return row.substr(from, row.find('"', from) - from);
    };
    pairs.emplace_back(field("design"), field("cert"));
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  bench::applyThreadsFlag(argc, argv);
  const std::uint64_t seed = bench::seedArg(argc, argv, /*fallback=*/17);
  scan::CorpusSpec spec;
  spec.designs = sizeArg(argc, argv, "--designs", 1000);
  spec.ring = sizeArg(argc, argv, "--certs", 100);
  bench::JsonReport json("disc_corpus_scan", argc, argv);
  bench::banner("DISC-CORPUS-SCAN: fingerprint pre-filter vs exact-only",
                "corpus scanner (docs/CORPUS_SCAN.md, ROADMAP item 2)");

  std::printf("generating corpus: %zu designs, %zu certificates, seed %llu\n",
              spec.designs, spec.ring,
              static_cast<unsigned long long>(seed));
  const scan::BuiltCorpus corpus = scan::buildRandomCorpus(spec, seed);

  // --emit DIR: write the corpus + ring to disk for CLI smoke runs, skip
  // the timed scans.
  if (const char* emit = stringArg(argc, argv, "--emit")) {
    scan::writeCorpus(corpus, emit);
    std::printf("wrote corpus to %s (ring: %s/ring.keyring)\n", emit, emit);
    return 0;
  }

  scan::ScanOptions pre;
  pre.prefilter = true;
  scan::ScanOptions exact;
  exact.prefilter = false;

  const auto pre_start = std::chrono::steady_clock::now();
  const scan::ScanResult with_filter =
      scan::scanCorpus(corpus.items, corpus.ring, pre);
  const double pre_ms = millisSince(pre_start);

  const auto exact_start = std::chrono::steady_clock::now();
  const scan::ScanResult exact_only =
      scan::scanCorpus(corpus.items, corpus.ring, exact);
  const double exact_ms = millisSince(exact_start);

  // Soundness: the match rows (not the design summaries, whose
  // pruned/survivor counters legitimately differ) must be identical.
  const auto pre_pairs = matchPairs(with_filter.rows);
  const auto exact_pairs = matchPairs(exact_only.rows);
  const bool rows_equal = pre_pairs == exact_pairs;
  const std::set<std::pair<std::string, std::string>> found(
      pre_pairs.begin(), pre_pairs.end());
  std::size_t matched_planted = 0;
  for (const auto& [item, entry] : corpus.planted) {
    if (found.contains({corpus.items[item].path,
                        corpus.ring.entries()[entry].cert_path})) {
      ++matched_planted;
    }
  }
  const double recall_planted =
      corpus.planted.empty()
          ? 1.0
          : static_cast<double>(matched_planted) /
                static_cast<double>(corpus.planted.size());
  const scan::ScanStats& st = with_filter.stats;
  const double precision =
      st.survivor_pairs == 0
          ? 1.0
          : static_cast<double>(st.match_pairs) /
                static_cast<double>(st.survivor_pairs);
  const double pre_dps = 1000.0 * static_cast<double>(st.designs) / pre_ms;
  const double exact_dps =
      1000.0 * static_cast<double>(exact_only.stats.designs) / exact_ms;
  const double speedup = exact_ms / pre_ms;
  const bool meets_target =
      rows_equal && matched_planted == corpus.planted.size();

  std::printf("\n%-28s %12s %12s\n", "", "prefilter", "exact-only");
  std::printf("%-28s %12.1f %12.1f\n", "wall ms", pre_ms, exact_ms);
  std::printf("%-28s %12.1f %12.1f\n", "designs/sec", pre_dps, exact_dps);
  std::printf("%-28s %12zu %12zu\n", "pairs replayed", st.survivor_pairs,
              exact_only.stats.survivor_pairs);
  std::printf("%-28s %12zu %12zu\n", "candidate roots",
              st.candidate_roots, exact_only.stats.candidate_roots);
  std::printf("\nspeedup over root-screened exact-only %.2fx, precision "
              "%.4f, recall (planted) %.4f, "
              "match rows identical: %s\n",
              speedup, precision, recall_planted,
              rows_equal ? "yes" : "NO");
  std::printf("target (match rows identical, recall 1.0): %s\n",
              meets_target ? "met" : "NOT met");

  json.row({{"designs", spec.designs},
            {"certs", spec.ring},
            {"seed", seed},
            {"threads", rt::threadCount()},
            {"planted", corpus.planted.size()},
            {"matched_planted", matched_planted},
            {"recall_planted", recall_planted},
            {"match_rows_equal", rows_equal},
            {"matches", st.match_pairs},
            {"pruned_pairs", st.pruned_pairs},
            {"survivor_pairs", st.survivor_pairs},
            {"precision", precision},
            {"pre_ms", pre_ms},
            {"exact_ms", exact_ms},
            {"pre_designs_per_sec", pre_dps},
            {"exact_designs_per_sec", exact_dps},
            {"speedup", speedup},
            {"meets_target", meets_target}});
  return rows_equal && matched_planted == corpus.planted.size() ? 0 : 1;
}
