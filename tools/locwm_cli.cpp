// locwm — command-line driver for the local-watermarking library.
//
// Typical protect/detect round trip:
//
//   locwm gen wave 10 -o core.cdfg
//   locwm embed core.cdfg -i "Acme Inc." -n core-v1
//         -o marked.cdfg -c core.wmc --marks 3   (one line)
//   locwm schedule marked.cdfg -o core.sched
//   locwm strip marked.cdfg -o published.cdfg
//   ... the published design + schedule circulate ...
//   locwm detect published.cdfg core.sched core.wmc -i "Acme Inc." -n core-v1
//
// Files: designs use the cdfg/io.h text format; certificates the
// core/certificate_io.h format; schedules are lines of "<node> <step>".
//
// Observability: `--trace FILE` writes a Chrome trace-event JSON of every
// pass span (open in chrome://tracing or https://ui.perfetto.dev),
// `--stats FILE` writes the counter/gauge/pass-timer snapshot as JSON,
// `--metrics FILE` writes an OpenMetrics text exposition, `--events FILE`
// streams ndjson telemetry events, `--report` prints the per-pass
// wall-time table to stderr at exit.  See docs/OBSERVABILITY.md.
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if __has_include(<locwm/build_info.h>)
#include <locwm/build_info.h>
#endif
#ifndef LOCWM_VERSION
#define LOCWM_VERSION "unknown"
#endif
#ifndef LOCWM_GIT_DESCRIBE
#define LOCWM_GIT_DESCRIBE "unknown"
#endif
#ifndef LOCWM_BUILD_TYPE
#define LOCWM_BUILD_TYPE "unknown"
#endif

#include "cdfg/analysis.h"
#include "cdfg/delta.h"
#include "cdfg/dot.h"
#include "cdfg/io.h"
#include "check/baseline.h"
#include "check/differ.h"
#include "check/incremental.h"
#include "check/linter.h"
#include "check/pass_audit.h"
#include "check/project.h"
#include "check/workspace.h"
#include "check/rules.h"
#include "core/certificate_io.h"
#include "core/tm_wm.h"
#include "obs/events.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "tm/cover.h"
#include "tm/library_io.h"
#include "core/pc.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "regbind/binding.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
#include "rt/rt.h"
#include "scan/corpus.h"
#include "scan/keyring.h"
#include "scan/scan.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"
#include "workloads/iir4.h"
#include "workloads/mediabench.h"

namespace {

using namespace locwm;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "locwm: %s\n", message.c_str());
  std::exit(2);
}

// -q/--quiet suppresses informational output (results still drive the
// exit code, so scripts lose nothing).
bool g_quiet = false;

void note(const char* format, ...) {
  if (g_quiet) {
    return;
  }
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
}

[[noreturn]] void usage() {
  // Usage is a diagnostic (exit 2), so it belongs on stderr: piping the
  // tool's real output stays clean when invoked wrongly.
  std::fputs(
      "usage: locwm <command> [args]\n"
      "\n"
      "commands:\n"
      "  gen <kind> [size] -o FILE      generate a benchmark design\n"
      "                                 kinds: iir4, fir, lattice, wave,\n"
      "                                 cascade, dct8, wavelet, volterra,\n"
      "                                 ctrl2, mediabench:<app>\n"
      "  info FILE                      print design statistics\n"
      "  dot FILE [-o FILE]             export Graphviz DOT\n"
      "  embed FILE -i ID -n NONCE -o MARKED -c CERTBASE [--marks N]\n"
      "                                 [--deadline D] [--kfrac F]\n"
      "  schedule FILE -o SCHED [--deadline D]\n"
      "  strip FILE -o FILE             remove temporal edges (publish)\n"
      "  detect FILE SCHED CERT... -i ID -n NONCE\n"
      "                                 scan a suspect for each certificate\n"
      "  embed-reg FILE SCHED -i ID -n NONCE -c CERT -o BINDING\n"
      "                                 bind registers with a watermark\n"
      "  detect-reg FILE SCHED BINDING CERT... -i ID -n NONCE\n"
      "                                 scan a register binding\n"
      "  verify-cert CERT...            sanity-check certificate files\n"
      "  gen-lib -o FILE                write the built-in template library\n"
      "  embed-tm FILE -i ID -n NONCE -c CERT -o COVER [--lib FILE]\n"
      "                                 cover the design with a watermark\n"
      "  detect-tm FILE COVER CERT... -i ID -n NONCE [--lib FILE]\n"
      "                                 scan a template cover\n"
      "  lint FILE... [--json] [--sarif] [--werror] [--lib FILE]\n"
      "       [--baseline FILE] [--update-baseline]\n"
      "                                 statically check artifacts; kinds\n"
      "                                 are sniffed (design, schedule,\n"
      "                                 cover, binding, library, cert).\n"
      "                                 Order matters: a design provides\n"
      "                                 context for later artifacts.\n"
      "                                 --baseline suppresses known\n"
      "                                 findings (ratchet); add\n"
      "                                 --update-baseline to regenerate\n"
      "                                 the file from this run.  See\n"
      "                                 docs/STATIC_ANALYSIS.md\n"
      "  lint --project DIR | --manifest FILE [--cache DIR] [--no-cache]\n"
      "       [--json] [--sarif] [--werror] [--lib FILE]\n"
      "                                 cross-artifact workspace analysis:\n"
      "                                 loads every artifact of a\n"
      "                                 directory (or the manifest's\n"
      "                                 list), resolves references\n"
      "                                 between them, and runs the LW8xx\n"
      "                                 rules on top of the per-artifact\n"
      "                                 ones.  Results are cached under\n"
      "                                 DIR/.locwm-cache (override with\n"
      "                                 --cache) keyed by content digest,\n"
      "                                 so warm re-runs skip unchanged\n"
      "                                 artifacts\n"
      "  diff ORIGINAL MARKED [CERT...] [--json] [--sarif] [--werror]\n"
      "       [--resume FILE]           prove MARKED is ORIGINAL plus\n"
      "                                 watermark temporal edges only;\n"
      "                                 certificates attribute the extra\n"
      "                                 edges (LW7xx diagnostics).\n"
      "                                 --resume reuses/writes a state\n"
      "                                 file so repeated diffs re-match\n"
      "                                 only certificates whose edges\n"
      "                                 were touched since the last run\n"
      "  delta DESIGN [EDITS] [-o FILE] [--verify] [--json]\n"
      "                                 apply an ndjson edit stream (from\n"
      "                                 EDITS or stdin) to the design with\n"
      "                                 the incremental analysis engine,\n"
      "                                 reporting per-commit repair stats\n"
      "                                 and the final LW6xx report.  Ops:\n"
      "                                 {\"op\":\"add-node\",\"kind\":K,\n"
      "                                 \"name\":S}, {\"op\":\"remove-node\",\n"
      "                                 \"node\":N}, {\"op\":\"add-edge\",\n"
      "                                 \"src\":A,\"dst\":B,\"kind\":K},\n"
      "                                 {\"op\":\"remove-edge\",...},\n"
      "                                 {\"op\":\"commit\"}.  --verify\n"
      "                                 cross-checks every commit against\n"
      "                                 a full recompute\n"
      "  scan DIR|MANIFEST --keys RING [--json] [-o FILE] [--shard I/N]\n"
      "       [--cache DIR] [--no-cache] [--no-prefilter]\n"
      "                                 corpus scan: find every\n"
      "                                 (design, certificate) match\n"
      "                                 between the corpus (a directory\n"
      "                                 or an ndjson manifest of designs)\n"
      "                                 and a key ring.  Designs are\n"
      "                                 lowered once and screened by an\n"
      "                                 O(1) locality-fingerprint\n"
      "                                 pre-filter (sound: recall 1.0);\n"
      "                                 only survivors get exact replay.\n"
      "                                 --json emits one ndjson row block\n"
      "                                 per design; blocks carry item\n"
      "                                 indices so --shard I/N outputs\n"
      "                                 concatenate byte-identically.\n"
      "                                 Fingerprints are cached under\n"
      "                                 DIR/.locwm-cache (--cache\n"
      "                                 overrides, --no-cache disables).\n"
      "                                 See docs/CORPUS_SCAN.md\n"
      "\n"
      "  version                        print version and build info\n"
      "\n"
      "global options (any command):\n"
      "  -q, --quiet                    suppress informational output\n"
      "  --trace FILE                   write Chrome trace-event JSON\n"
      "                                 (chrome://tracing / Perfetto)\n"
      "  --stats FILE                   write counters/gauges/pass times\n"
      "                                 as JSON\n"
      "  --metrics FILE                 write an OpenMetrics/Prometheus\n"
      "                                 text exposition at exit\n"
      "  --events FILE                  stream telemetry events (span\n"
      "                                 begin/end, counters, histograms)\n"
      "                                 as newline-delimited JSON\n"
      "  --report                       print per-pass wall-time table to\n"
      "                                 stderr at exit\n"
      "  --threads N                    worker threads for the parallel\n"
      "                                 passes; overrides LOCWM_THREADS,\n"
      "                                 which overrides the hardware\n"
      "                                 concurrency default\n"
      "\n"
      "exit codes:\n"
      "  0  success; for detect commands: at least one mark detected\n"
      "  1  detect commands: no mark detected (verify-cert: invalid\n"
      "     cert; lint/diff: errors found, or warnings with --werror)\n"
      "  2  usage or I/O error\n"
      "\n"
      "environment:\n"
      "  LOCWM_CHECK_PASSES=1           audit every embed/detect pass\n"
      "                                 product with the lint rules\n"
      "                                 (findings go to stderr)\n",
      stderr);
  std::exit(2);
}

cdfg::Cdfg loadDesign(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    die("cannot open design file '" + path + "'");
  }
  return cdfg::parse(in);
}

void saveText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    die("cannot write '" + path + "'");
  }
  out << text;
}

sched::Schedule loadSchedule(const std::string& path, std::size_t nodes) {
  std::ifstream in(path);
  if (!in) {
    die("cannot open schedule file '" + path + "'");
  }
  sched::Schedule s(nodes);
  std::uint32_t node = 0;
  std::uint32_t step = 0;
  while (in >> node >> step) {
    if (node >= nodes) {
      die("schedule references node " + std::to_string(node) +
          " outside the design");
    }
    s.set(cdfg::NodeId(node), step);
  }
  return s;
}

/// Pulls "-x value" / "--flag value" style options out of argv.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  [[nodiscard]] std::optional<std::string> get(
      const std::string& name) const {
    for (const auto& [k, v] : options) {
      if (k == name) {
        return v;
      }
    }
    return std::nullopt;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return get(name).has_value();
  }
  [[nodiscard]] std::string require(const std::string& name,
                                    const std::string& what) const {
    const auto v = get(name);
    if (!v) {
      die("missing " + name + " (" + what + ")");
    }
    return *v;
  }
};

bool isBooleanFlag(const std::string& name) {
  return name == "-q" || name == "--quiet" || name == "--report" ||
         name == "--json" || name == "--werror" || name == "--sarif" ||
         name == "--verify" || name == "--update-baseline" ||
         name == "--no-cache" || name == "--no-prefilter";
}

Args parseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.size() > 1 && a.front() == '-') {
      if (isBooleanFlag(a)) {
        args.options.emplace_back(a, "");
        continue;
      }
      if (i + 1 >= argc) {
        die("option " + a + " needs a value");
      }
      args.options.emplace_back(a, argv[++i]);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

int cmdGen(const Args& args) {
  if (args.positional.empty()) {
    die("gen: which design?");
  }
  const std::string kind = args.positional[0];
  const std::size_t size =
      args.positional.size() > 1 ? std::stoul(args.positional[1]) : 8;
  cdfg::Cdfg g;
  if (kind == "iir4") {
    g = workloads::iir4Parallel();
  } else if (kind == "fir") {
    g = workloads::fir(size);
  } else if (kind == "lattice") {
    g = workloads::lattice(size);
  } else if (kind == "wave") {
    g = workloads::waveFilter(size);
  } else if (kind == "cascade") {
    g = workloads::iirCascade(size);
  } else if (kind == "dct8") {
    g = workloads::dct8();
  } else if (kind == "wavelet") {
    g = workloads::wavelet(size);
  } else if (kind == "volterra") {
    g = workloads::volterra(size);
  } else if (kind == "ctrl2") {
    g = workloads::controller2();
  } else if (kind.rfind("mediabench:", 0) == 0) {
    const std::string app = kind.substr(std::strlen("mediabench:"));
    bool found = false;
    for (const auto& p : workloads::mediaBenchProfiles()) {
      if (p.name == app) {
        g = workloads::buildMediaBench(p);
        found = true;
      }
    }
    if (!found) {
      die("unknown mediabench app '" + app + "'");
    }
  } else {
    die("unknown design kind '" + kind + "'");
  }
  saveText(args.require("-o", "output design file"),
           cdfg::printToString(g));
  note("wrote %zu nodes, %zu edges\n", g.nodeCount(), g.edgeCount());
  return 0;
}

int cmdInfo(const Args& args) {
  if (args.positional.empty()) {
    die("info: which file?");
  }
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const cdfg::StructuralAnalysis an(g);
  std::size_t real = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  for (const cdfg::NodeId v : g.allNodes()) {
    const auto k = g.node(v).kind;
    real += !cdfg::isPseudoOp(k);
    inputs += k == cdfg::OpKind::kInput;
    outputs += k == cdfg::OpKind::kOutput;
  }
  std::printf("nodes            %zu (%zu ops, %zu inputs, %zu outputs)\n",
              g.nodeCount(), real, inputs, outputs);
  std::printf("edges            %zu (%zu temporal)\n", g.edgeCount(),
              g.temporalEdges().size());
  std::printf("critical path    %u operations\n", an.criticalPathLength());
  const sched::TimeFrames tf(g, sched::LatencyModel::unit());
  std::printf("min steps        %u\n", tf.criticalPathSteps());
  return 0;
}

int cmdDot(const Args& args) {
  if (args.positional.empty()) {
    die("dot: which file?");
  }
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const std::string dot = cdfg::toDot(g);
  if (const auto out = args.get("-o")) {
    saveText(*out, dot);
  } else {
    std::fputs(dot.c_str(), stdout);
  }
  return 0;
}

crypto::AuthorSignature signatureOf(const Args& args) {
  return {args.require("-i", "author identity"),
          args.require("-n", "design nonce")};
}

int cmdEmbed(const Args& args) {
  if (args.positional.empty()) {
    die("embed: which design?");
  }
  cdfg::Cdfg g = loadDesign(args.positional[0]);
  const auto sig = signatureOf(args);
  wm::SchedulingWatermarker marker(sig);

  wm::SchedWmParams params;
  const sched::TimeFrames tf(g, params.latency);
  params.deadline = args.get("--deadline")
                        ? std::stoul(*args.get("--deadline"))
                        : tf.criticalPathSteps() + 3;
  if (const auto kf = args.get("--kfrac")) {
    params.k_fraction = std::stod(*kf);
  }
  params.locality.min_size = 4;
  params.min_eligible = 2;
  const std::size_t count =
      args.get("--marks") ? std::stoul(*args.get("--marks")) : 1;

  const auto marks = marker.embedMany(g, count, params);
  if (marks.empty()) {
    die("no locality satisfied the embedding parameters");
  }
  saveText(args.require("-o", "marked design output"),
           cdfg::printToString(g));
  const std::string base = args.require("-c", "certificate output base");
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const std::string path =
        marks.size() == 1 ? base : base + "." + std::to_string(i);
    saveText(path, wm::certificateToString(marks[i].certificate));
    note("mark %zu: %zu constraints -> %s\n", i,
         marks[i].certificate.constraints.size(), path.c_str());
  }
  return 0;
}

int cmdSchedule(const Args& args) {
  if (args.positional.empty()) {
    die("schedule: which design?");
  }
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const sched::Schedule s = sched::listSchedule(g);
  saveText(args.require("-o", "schedule output"),
           sched::scheduleToString(g, s));
  note("scheduled into %u steps\n",
       s.makespan(g, sched::LatencyModel::unit()));
  return 0;
}

int cmdStrip(const Args& args) {
  if (args.positional.empty()) {
    die("strip: which design?");
  }
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  saveText(args.require("-o", "published design output"),
           cdfg::printToString(g.stripTemporalEdges()));
  return 0;
}

/// Pc of a scheduling certificate at deadline slack 2: exact from the
/// schedule counts or, when exactSchedulingPc gives up (a locality past
/// the counter's cell bound), the window-model approximation over the
/// certificate's shape (exact = false).
wm::PcEstimate certificatePc(const wm::WatermarkCertificate& cert) {
  constexpr std::uint32_t kSlack = 2;
  try {
    return wm::exactSchedulingPc(cert, kSlack);
  } catch (const Error&) {
    std::vector<sched::ExtraEdge> edges;
    edges.reserve(cert.constraints.size());
    for (const wm::RankConstraint& c : cert.constraints) {
      edges.push_back({cdfg::NodeId(c.before_rank), cdfg::NodeId(c.after_rank)});
    }
    const sched::LatencyModel unit = sched::LatencyModel::unit();
    return wm::approxSchedulingPc(
        cert.shape, edges, unit,
        sched::TimeFrames(cert.shape, unit).criticalPathSteps() + kSlack);
  }
}

int cmdDetect(const Args& args) {
  if (args.positional.size() < 3) {
    die("detect: need <design> <schedule> <certificate>...");
  }
  const cdfg::Cdfg suspect = loadDesign(args.positional[0]);
  const sched::Schedule s =
      loadSchedule(args.positional[1], suspect.nodeCount());
  const auto sig = signatureOf(args);
  const wm::SchedulingWatermarker marker(sig);

  int found = 0;
  for (std::size_t i = 2; i < args.positional.size(); ++i) {
    std::ifstream in(args.positional[i]);
    if (!in) {
      die("cannot open certificate '" + args.positional[i] + "'");
    }
    const auto cert = wm::parseSchedCertificate(in);
    const auto det = marker.detect(suspect, s, cert);
    // Proof strength: the locality's schedule-count ratio, times the
    // number of places the locality shape occurs ("the number of nodes
    // from which one can find the subtree T", §IV-B's multiplier).
    std::string strength = "n/a";
    if (det.found) {
      const wm::PcEstimate pc = certificatePc(cert);
      char buf[80];
      std::snprintf(buf, sizeof buf,
                    pc.exact ? "Pc<=%.2e" : "Pc~%.2e (window-model approximation)",
                    pc.pc() * static_cast<double>(det.shape_matches));
      strength = buf;
    }
    note("%-24s %s (%zu/%zu constraints, %zu shape matches, %s)\n",
         args.positional[i].c_str(), det.found ? "DETECTED" : "not found",
         det.satisfied, det.total, det.shape_matches, strength.c_str());
    found += det.found;
  }
  return found > 0 ? 0 : 1;
}

regbind::Binding loadBinding(const std::string& path,
                             const regbind::LifetimeTable& table) {
  std::ifstream in(path);
  if (!in) {
    die("cannot open binding file '" + path + "'");
  }
  return regbind::parseBinding(in, table);
}

int cmdEmbedReg(const Args& args) {
  if (args.positional.size() < 2) {
    die("embed-reg: need <design> <schedule>");
  }
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const sched::Schedule s =
      loadSchedule(args.positional[1], g.nodeCount());
  wm::RegisterWatermarker marker(signatureOf(args));
  wm::RegWmParams params;
  params.locality.min_size = 5;
  const auto r = marker.embed(g, s, params);
  if (!r) {
    die("no locality satisfied the embedding parameters");
  }
  const auto table = regbind::computeLifetimes(g, s);
  regbind::BindOptions bo;
  bo.aliases = r->aliases;
  const auto binding = regbind::bindRegisters(table, bo);
  saveText(args.require("-o", "binding output"),
           regbind::bindingToString(table, binding));
  saveText(args.require("-c", "certificate output"),
           wm::certificateToString(r->certificate));
  note("bound %zu values into %u registers with %zu shared pairs\n",
       table.values.size(), binding.register_count, r->aliases.size());
  return 0;
}

int cmdDetectReg(const Args& args) {
  if (args.positional.size() < 4) {
    die("detect-reg: need <design> <schedule> <binding> <certificate>...");
  }
  const cdfg::Cdfg suspect = loadDesign(args.positional[0]);
  const sched::Schedule s =
      loadSchedule(args.positional[1], suspect.nodeCount());
  const auto table = regbind::computeLifetimes(suspect, s);
  const auto binding = loadBinding(args.positional[2], table);
  wm::RegisterWatermarker marker(signatureOf(args));
  int found = 0;
  for (std::size_t i = 3; i < args.positional.size(); ++i) {
    std::ifstream in(args.positional[i]);
    if (!in) {
      die("cannot open certificate '" + args.positional[i] + "'");
    }
    const auto cert = wm::parseRegCertificate(in);
    const auto det = marker.detect(suspect, table, binding, cert);
    note("%-24s %s (%zu/%zu pairs, %zu shape matches)\n",
         args.positional[i].c_str(), det.found ? "DETECTED" : "not found",
         det.shared, det.total, det.shape_matches);
    found += det.found;
  }
  return found > 0 ? 0 : 1;
}

tm::TemplateLibrary loadLibrary(const Args& args) {
  if (const auto path = args.get("--lib")) {
    std::ifstream in(*path);
    if (!in) {
      die("cannot open template library '" + *path + "'");
    }
    return tm::parseLibrary(in);
  }
  return tm::TemplateLibrary::basicDsp();
}

int cmdGenLib(const Args& args) {
  saveText(args.require("-o", "library output"),
           tm::libraryToString(tm::TemplateLibrary::basicDsp()));
  return 0;
}

int cmdEmbedTm(const Args& args) {
  if (args.positional.empty()) {
    die("embed-tm: which design?");
  }
  const cdfg::Cdfg g = loadDesign(args.positional[0]);
  const tm::TemplateLibrary lib = loadLibrary(args);
  wm::TemplateWatermarker marker(signatureOf(args), lib);
  wm::TmWmParams params;
  params.whole_design = true;
  params.beta = 0.0;
  const auto r = marker.embed(g, params);
  if (!r) {
    die("no locality satisfied the embedding parameters");
  }
  const tm::CoverResult cover = marker.applyCover(g, *r);
  saveText(args.require("-o", "cover output"),
           tm::coverToString(cover.chosen));
  saveText(args.require("-c", "certificate output"),
           wm::certificateToString(r->certificate));
  note("covered with %zu modules; %zu matchings enforced\n",
       cover.module_count, r->forced.size());
  return 0;
}

int cmdDetectTm(const Args& args) {
  if (args.positional.size() < 3) {
    die("detect-tm: need <design> <cover> <certificate>...");
  }
  const cdfg::Cdfg suspect = loadDesign(args.positional[0]);
  const tm::TemplateLibrary lib = loadLibrary(args);
  std::ifstream cin_(args.positional[1]);
  if (!cin_) {
    die("cannot open cover '" + args.positional[1] + "'");
  }
  const auto cover = tm::parseCover(cin_, lib, suspect.nodeCount());
  wm::TemplateWatermarker marker(signatureOf(args), lib);
  int found = 0;
  for (std::size_t i = 2; i < args.positional.size(); ++i) {
    std::ifstream in(args.positional[i]);
    if (!in) {
      die("cannot open certificate '" + args.positional[i] + "'");
    }
    const auto cert = wm::parseTmCertificate(in);
    const auto det = marker.detect(suspect, cover, cert);
    note("%-24s %s (%zu/%zu matchings)\n", args.positional[i].c_str(),
         det.found ? "DETECTED" : "not found", det.present, det.total);
    found += det.found;
  }
  return found > 0 ? 0 : 1;
}

int cmdVerifyCert(const Args& args) {
  if (args.positional.empty()) {
    die("verify-cert: which file?");
  }
  int bad = 0;
  for (const std::string& path : args.positional) {
    std::ifstream in(path);
    if (!in) {
      die("cannot open certificate '" + path + "'");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    try {
      const auto cert = wm::parseSchedCertificate(text);
      std::printf("%-24s sched: %zu-op locality, %zu constraints",
                  path.c_str(), cert.shape.nodeCount(),
                  cert.constraints.size());
      const wm::PcEstimate pc = certificatePc(cert);
      std::printf(pc.exact ? ", Pc = %.2e\n"
                           : ", Pc ~ %.2e (window-model approximation)\n",
                  pc.pc());
      continue;
    } catch (const ParseError&) {
    }
    try {
      const auto cert = wm::parseTmCertificate(text);
      std::printf("%-24s tm: %zu-op locality, %zu matchings%s\n",
                  path.c_str(), cert.shape.nodeCount(),
                  cert.matchings.size(),
                  cert.whole_design ? " (whole-design)" : "");
      continue;
    } catch (const ParseError&) {
    }
    try {
      const auto cert = wm::parseRegCertificate(text);
      std::printf("%-24s reg: %zu-op locality, %zu shared pairs\n",
                  path.c_str(), cert.shape.nodeCount(), cert.pairs.size());
      continue;
    } catch (const ParseError& e) {
      std::printf("%-24s INVALID: %s\n", path.c_str(), e.what());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int cmdLint(const Args& args) {
  const auto project_dir = args.get("--project");
  const auto manifest_path = args.get("--manifest");
  const bool project_mode =
      project_dir.has_value() || manifest_path.has_value();
  if (!project_mode && args.positional.empty()) {
    std::fprintf(stderr, "locwm: lint: which artifacts?\n\n");
    usage();  // exits 2
  }
  tm::TemplateLibrary library = tm::TemplateLibrary::basicDsp();
  if (const auto path = args.get("--lib")) {
    std::ifstream in(*path);
    if (!in) {
      die("cannot open template library '" + *path + "'");
    }
    library = tm::parseLibrary(in);
  }
  check::Report report;
  check::ProjectStats project_stats;
  if (project_mode) {
    if (!args.positional.empty()) {
      die("lint: --project/--manifest and positional artifacts are "
          "mutually exclusive");
    }
    try {
      check::Workspace ws =
          manifest_path
              ? check::Workspace::fromManifestFile(*manifest_path)
              : check::Workspace::fromDirectory(project_dir.value_or("."));
      check::ProjectOptions options;
      options.library = std::move(library);
      if (!args.has("--no-cache")) {
        options.cache_dir = args.get("--cache").value_or(
            (std::filesystem::path(ws.root()) / ".locwm-cache").string());
      }
      check::ProjectResult result = check::checkProject(ws, options);
      report = std::move(result.report);
      project_stats = result.stats;
    } catch (const Error& e) {
      die(e.what());
    }
  } else {
    check::LintOptions options;
    options.library = std::move(library);
    check::Linter linter(std::move(options));
    for (const std::string& path : args.positional) {
      linter.lintFile(path);
    }
    report = linter.report();
  }

  // Baseline ratchet: report only findings the baseline doesn't know.
  const auto baseline_path = args.get("--baseline");
  if (args.has("--update-baseline")) {
    if (!baseline_path) {
      die("--update-baseline needs --baseline FILE");
    }
    saveText(*baseline_path, check::Baseline::fromReport(report).toJson());
    note("baseline updated: %zu finding(s) recorded in %s\n",
         report.diagnostics().size(), baseline_path->c_str());
    return 0;
  }
  if (baseline_path) {
    std::ifstream in(*baseline_path);
    if (!in) {
      die("cannot open baseline '" + *baseline_path + "'");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    check::Baseline baseline;
    try {
      baseline = check::Baseline::parse(buffer.str());
    } catch (const std::exception& e) {
      die(e.what());
    }
    const std::size_t before = report.diagnostics().size();
    report = baseline.filterNew(report);
    note("baseline: %zu of %zu finding(s) suppressed\n",
         before - report.diagnostics().size(), before);
  }

  if (args.has("--sarif")) {
    std::fputs(report.renderSarif().c_str(), stdout);
  } else if (args.has("--json")) {
    std::fputs(report.renderJson().c_str(), stdout);
  } else if (!report.empty() || !g_quiet) {
    std::fputs(report.renderText().c_str(), stdout);
  }
  if (project_mode) {
    note("project: %zu artifact(s), %zu finding(s), cache %zu/%zu hit(s) "
         "(%.1f%%)\n",
         project_stats.artifacts, report.diagnostics().size(),
         project_stats.cache_hits, project_stats.cache_probes,
         project_stats.hitRatePct());
  }
  const bool fail =
      report.hasErrors() || (args.has("--werror") && report.hasWarnings());
  return fail ? 1 : 0;
}

int cmdDiff(const Args& args) {
  if (args.positional.size() < 2) {
    die("diff: need <original> <marked> [certificate...]");
  }
  const cdfg::Cdfg original = loadDesign(args.positional[0]);
  const cdfg::Cdfg marked = loadDesign(args.positional[1]);
  std::vector<wm::WatermarkCertificate> certs;
  for (std::size_t i = 2; i < args.positional.size(); ++i) {
    std::ifstream in(args.positional[i]);
    if (!in) {
      die("cannot open certificate '" + args.positional[i] + "'");
    }
    certs.push_back(wm::parseSchedCertificate(in));
  }
  check::DiffResult diff;
  if (const auto state_path = args.get("--resume")) {
    check::DiffResumeState prior;
    bool have_prior = false;
    if (std::ifstream in(*state_path); in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      try {
        prior = check::parseDiffState(buffer.str());
        have_prior = true;
      } catch (const std::exception& e) {
        die(e.what());
      }
    }
    check::DiffResumeState next;
    diff = check::resumeDiff(original, marked, certs,
                             have_prior ? &prior : nullptr, &next,
                             args.positional[0], args.positional[1]);
    saveText(*state_path, check::diffStateToString(next));
    note("resume: %s; %zu certificate(s) reused, %zu matched\n",
         diff.resumed ? "prior state reused"
                      : (have_prior ? "prior state stale, full diff"
                                    : "no prior state, full diff"),
         diff.certs_reused, diff.certs_matched);
  } else {
    diff = check::diffDesigns(original, marked, certs, args.positional[0],
                              args.positional[1]);
  }
  if (args.has("--sarif")) {
    std::fputs(diff.report.renderSarif().c_str(), stdout);
  } else if (args.has("--json")) {
    std::fputs(diff.report.renderJson().c_str(), stdout);
  } else if (!diff.report.empty() || !g_quiet) {
    std::fputs(diff.report.renderText().c_str(), stdout);
  }
  note("core %s; %zu extra temporal edge(s), %zu explained by %zu "
       "certificate(s)\n",
       diff.identical_core ? "identical" : "DIFFERS",
       diff.extra_temporal.size(), diff.explained, certs.size());
  const bool fail = diff.report.hasErrors() ||
                    (args.has("--werror") && diff.report.hasWarnings());
  return fail ? 1 : 0;
}

// --- `locwm delta`: ndjson edit stream against the incremental engine ---

/// Parses one flat ndjson object ({"key": "string" | number, ...}) into
/// key/value pairs (numbers kept as their literal text).  The edit
/// vocabulary needs nothing deeper.  Blank lines yield an empty list.
std::vector<std::pair<std::string, std::string>> parseEditLine(
    const std::string& line, std::size_t lineno) {
  const auto fail = [lineno](const std::string& why) {
    die("delta: line " + std::to_string(lineno) + ": " + why);
  };
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t pos = 0;
  const auto skipWs = [&] {
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
      ++pos;
    }
  };
  const auto parseString = [&]() -> std::string {
    ++pos;  // opening quote, checked by the caller
    std::string out;
    while (pos < line.size() && line[pos] != '"') {
      char c = line[pos++];
      if (c == '\\') {
        if (pos >= line.size()) {
          fail("dangling escape");
        }
        c = line[pos++];
        if (c == 'n') {
          c = '\n';
        } else if (c == 't') {
          c = '\t';
        } else if (c != '"' && c != '\\' && c != '/') {
          fail("unsupported escape");
        }
      }
      out += c;
    }
    if (pos >= line.size()) {
      fail("unterminated string");
    }
    ++pos;  // closing quote
    return out;
  };
  skipWs();
  if (pos == line.size()) {
    return fields;
  }
  if (line[pos] != '{') {
    fail("expected '{'");
  }
  ++pos;
  skipWs();
  if (pos < line.size() && line[pos] == '}') {
    return fields;
  }
  for (;;) {
    skipWs();
    if (pos >= line.size() || line[pos] != '"') {
      fail("expected field name");
    }
    const std::string key = parseString();
    skipWs();
    if (pos >= line.size() || line[pos] != ':') {
      fail("expected ':'");
    }
    ++pos;
    skipWs();
    std::string value;
    if (pos < line.size() && line[pos] == '"') {
      value = parseString();
    } else {
      while (pos < line.size() &&
             (std::isdigit(static_cast<unsigned char>(line[pos])) != 0 ||
                                   line[pos] == '-' || line[pos] == '+')) {
        value += line[pos++];
      }
      if (value.empty()) {
        fail("expected string or number value");
      }
    }
    fields.emplace_back(key, value);
    skipWs();
    if (pos < line.size() && line[pos] == ',') {
      ++pos;
      continue;
    }
    if (pos < line.size() && line[pos] == '}') {
      return fields;
    }
    fail("expected ',' or '}'");
  }
}

int cmdDelta(const Args& args) {
  if (args.positional.empty()) {
    die("delta: which design?");
  }
  cdfg::Cdfg g = loadDesign(args.positional[0]);
  const bool verify = args.has("--verify");
  const bool json = args.has("--json");

  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.positional.size() > 1) {
    file.open(args.positional[1]);
    if (!file) {
      die("cannot open edit stream '" + args.positional[1] + "'");
    }
    in = &file;
  }

  check::delta::IncrementalAnalysis engine(std::move(g), args.positional[0]);

  cdfg::EditDelta batch;
  std::vector<std::size_t> batch_lines;  // ops[i] came from line ...
  std::size_t lineno = 0;
  std::size_t commits = 0;
  std::size_t rejected_total = 0;

  const auto commit = [&] {
    if (batch.empty()) {
      return;
    }
    ++commits;
    cdfg::AppliedDelta applied;
    const check::delta::DeltaStats stats = engine.applyDelta(batch, &applied);
    for (const cdfg::RejectedOp& rej : applied.rejected) {
      std::fprintf(stderr, "locwm: delta: line %zu: rejected: %s\n",
                   batch_lines[rej.index], rej.reason.c_str());
    }
    rejected_total += applied.rejected.size();
    if (verify) {
      const check::Report oracle =
          check::checkSemantics(engine.graph(), engine.artifact());
      if (oracle.renderText() != engine.semanticReportText()) {
        die("delta: incremental report diverged from full recompute after "
            "commit " +
            std::to_string(commits));
      }
    }
    if (json) {
      std::printf(
          "{\"commit\": %zu, \"accepted\": %zu, \"rejected\": %zu, "
          "\"asap\": %zu, \"alap\": %zu, \"reach\": %zu, "
          "\"closure_rows\": %zu, \"lw601\": %zu, \"lw602\": %zu, "
          "\"nodes\": %zu, \"ranks_rebuilt\": %s, \"relowered\": %s, "
          "\"full_rebuild\": %s, \"report_rebuilt\": %s%s}\n",
          commits, stats.accepted_ops, stats.rejected_ops,
          stats.asap_recomputed, stats.alap_recomputed,
          stats.reach_recomputed, stats.closure_rows, stats.lw601_evals,
          stats.lw602_evals, stats.node_evals,
          stats.ranks_rebuilt ? "true" : "false",
          stats.relowered ? "true" : "false",
          stats.full_rebuild ? "true" : "false",
          stats.report_rebuilt ? "true" : "false",
          verify ? ", \"verified\": true" : "");
    } else {
      note("commit %zu: %zu op(s), %zu rejected; repaired asap %zu, "
           "alap %zu, reach %zu, closure rows %zu, lw601 %zu, lw602 %zu, "
           "node verdicts %zu%s%s%s\n",
           commits, stats.accepted_ops, stats.rejected_ops,
           stats.asap_recomputed, stats.alap_recomputed,
           stats.reach_recomputed, stats.closure_rows, stats.lw601_evals,
           stats.lw602_evals, stats.node_evals,
           stats.full_rebuild ? " (full rebuild)" : "",
           stats.relowered ? " (relowered)" : "",
           verify ? " [verified]" : "");
    }
    batch = cdfg::EditDelta{};
    batch_lines.clear();
  };

  const auto number = [](const std::string& value, const char* what,
                         std::size_t at) -> std::uint32_t {
    try {
      return static_cast<std::uint32_t>(std::stoul(value));
    } catch (const std::exception&) {
      die("delta: line " + std::to_string(at) + ": " + what +
          " needs a number, got '" + value + "'");
    }
  };

  std::string line;
  while (std::getline(*in, line)) {
    ++lineno;
    const auto fields = parseEditLine(line, lineno);
    if (fields.empty()) {
      continue;
    }
    const auto get = [&fields](const char* key) -> std::optional<std::string> {
      for (const auto& [k, v] : fields) {
        if (k == key) {
          return v;
        }
      }
      return std::nullopt;
    };
    const std::string op = get("op").value_or("");
    if (op == "commit") {
      commit();
      continue;
    }
    if (op == "add-node") {
      const std::string kind_name = get("kind").value_or("");
      const auto kind = cdfg::opFromName(kind_name);
      if (!kind) {
        die("delta: line " + std::to_string(lineno) +
            ": unknown operation kind '" + kind_name + "'");
      }
      batch.ops.push_back(
          cdfg::EditOp::addNode(*kind, get("name").value_or("")));
    } else if (op == "remove-node") {
      batch.ops.push_back(cdfg::EditOp::removeNode(cdfg::NodeId(
          number(get("node").value_or(""), "\"node\"", lineno))));
    } else if (op == "add-edge" || op == "remove-edge") {
      const std::string kind_name = get("kind").value_or("data");
      cdfg::EdgeKind kind = cdfg::EdgeKind::kData;
      if (kind_name == "control") {
        kind = cdfg::EdgeKind::kControl;
      } else if (kind_name == "temporal") {
        kind = cdfg::EdgeKind::kTemporal;
      } else if (kind_name != "data") {
        die("delta: line " + std::to_string(lineno) +
            ": unknown edge kind '" + kind_name + "'");
      }
      const cdfg::NodeId src(
          number(get("src").value_or(""), "\"src\"", lineno));
      const cdfg::NodeId dst(
          number(get("dst").value_or(""), "\"dst\"", lineno));
      batch.ops.push_back(op == "add-edge"
                              ? cdfg::EditOp::addEdge(src, dst, kind)
                              : cdfg::EditOp::removeEdge(src, dst, kind));
    } else {
      die("delta: line " + std::to_string(lineno) + ": unknown op '" + op +
          "'");
    }
    batch_lines.push_back(lineno);
  }
  commit();  // implicit trailing commit

  const check::Report& report = engine.semanticReport();
  if (!json && (!report.empty() || !g_quiet)) {
    std::fputs(engine.semanticReportText().c_str(), stdout);
  }
  note("%zu commit(s), %zu rejected op(s); design now %zu live node(s), "
       "%zu edge(s)\n",
       commits, rejected_total, engine.graph().liveNodeCount(),
       engine.graph().edgeCount());
  if (const auto out = args.get("-o")) {
    saveText(*out, cdfg::printToString(engine.graph()));
  }
  const bool fail =
      report.hasErrors() || (args.has("--werror") && report.hasWarnings());
  return fail ? 1 : 0;
}

int cmdScan(const Args& args) {
  if (args.positional.empty()) {
    die("scan: which corpus (directory or ndjson manifest)?");
  }
  const std::string target = args.positional[0];
  const std::string ring_path = args.require("--keys", "key-ring file");

  scan::ScanOptions options;
  options.prefilter = !args.has("--no-prefilter");
  if (const auto shard = args.get("--shard")) {
    const std::size_t slash = shard->find('/');
    std::size_t shard_index = 0;
    std::size_t shard_count = 0;
    try {
      shard_index = std::stoul(shard->substr(0, slash));
      shard_count =
          slash == std::string::npos ? 0 : std::stoul(shard->substr(slash + 1));
    } catch (const std::exception&) {
      shard_count = 0;
    }
    if (shard_count == 0 || shard_index >= shard_count) {
      die("scan: --shard wants I/N with 0 <= I < N, got '" + *shard + "'");
    }
    options.shard_index = static_cast<std::uint32_t>(shard_index);
    options.shard_count = static_cast<std::uint32_t>(shard_count);
  }
  const bool is_dir = std::filesystem::is_directory(target);
  if (args.has("--no-cache")) {
    // cache off
  } else if (const auto cache = args.get("--cache")) {
    options.cache_dir = *cache;
  } else if (is_dir) {
    options.cache_dir =
        (std::filesystem::path(target) / ".locwm-cache").string();
  }

  scan::KeyRing ring;
  std::vector<scan::CorpusItem> items;
  try {
    ring = scan::KeyRing::fromFile(ring_path);
    items = is_dir ? scan::loadCorpusFromDirectory(target)
                   : scan::loadCorpusFromManifest(target);
  } catch (const Error& e) {
    die(e.what());
  }
  const scan::ScanResult result = scan::scanCorpus(items, ring, options);

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (const auto path = args.get("-o")) {
    file.open(*path, std::ios::binary | std::ios::trunc);
    if (!file) {
      die("cannot write '" + *path + "'");
    }
    out = &file;
  }
  if (args.has("--json")) {
    for (const std::string& row : result.rows) {
      *out << row << '\n';
    }
  }
  const scan::ScanStats& st = result.stats;
  note("scan: %zu designs, %zu pairs (%zu pruned, %zu survivors), "
       "%zu matches, %zu candidate roots, cache %zu cold / %zu warm, "
       "%zu parse failures\n",
       st.designs, st.pairs, st.pruned_pairs, st.survivor_pairs,
       st.match_pairs, st.candidate_roots, st.cache_cold, st.cache_warm,
       st.parse_failures);
  return st.match_pairs > 0 ? 0 : 1;
}

int cmdVersion() {
  std::printf("locwm %s (%s, %s)\n", LOCWM_VERSION, LOCWM_GIT_DESCRIBE,
              LOCWM_BUILD_TYPE);
  return 0;
}

int runCommand(const std::string& cmd, const Args& args) {
  LOCWM_OBS_LATENCY("cli.command_ns");
  if (cmd == "version" || cmd == "--version") {
    return cmdVersion();
  }
  if (cmd == "gen") {
    return cmdGen(args);
  }
  if (cmd == "info") {
    return cmdInfo(args);
  }
  if (cmd == "dot") {
    return cmdDot(args);
  }
  if (cmd == "embed") {
    return cmdEmbed(args);
  }
  if (cmd == "schedule") {
    return cmdSchedule(args);
  }
  if (cmd == "strip") {
    return cmdStrip(args);
  }
  if (cmd == "detect") {
    return cmdDetect(args);
  }
  if (cmd == "embed-reg") {
    return cmdEmbedReg(args);
  }
  if (cmd == "detect-reg") {
    return cmdDetectReg(args);
  }
  if (cmd == "verify-cert") {
    return cmdVerifyCert(args);
  }
  if (cmd == "gen-lib") {
    return cmdGenLib(args);
  }
  if (cmd == "embed-tm") {
    return cmdEmbedTm(args);
  }
  if (cmd == "detect-tm") {
    return cmdDetectTm(args);
  }
  if (cmd == "lint") {
    return cmdLint(args);
  }
  if (cmd == "diff") {
    return cmdDiff(args);
  }
  if (cmd == "delta") {
    return cmdDelta(args);
  }
  if (cmd == "scan") {
    return cmdScan(args);
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
  }
  const std::string cmd = argv[1];
  const Args args = parseArgs(argc, argv, 2);

  g_quiet = args.has("-q") || args.has("--quiet");
  if (const auto threads = args.get("--threads")) {
    try {
      rt::setThreadCount(std::stoul(*threads));
    } catch (const std::exception&) {
      die("--threads needs a number, got '" + *threads + "'");
    }
  }
  const std::optional<std::string> trace_path = args.get("--trace");
  const std::optional<std::string> stats_path = args.get("--stats");
  const std::optional<std::string> metrics_path = args.get("--metrics");
  const std::optional<std::string> events_path = args.get("--events");
  const bool report = args.has("--report");
  if (trace_path || stats_path || metrics_path || events_path || report) {
    obs::setEnabled(true);
  }
  if (events_path && !obs::EventLog::instance().open(*events_path)) {
    die("cannot write events file '" + *events_path + "'");
  }
  check::installPassAuditFromEnv();

  int rc = 2;
  try {
    rc = runCommand(cmd, args);
  } catch (const std::exception& e) {
    die(e.what());
  }

  if (metrics_path || events_path) {
    // Publish late-bound state before export: pool gauges even when every
    // region ran inline, and a final memory sample.
    rt::publishPoolMetrics();
    obs::sampleMemoryGauges();
  }
  if (trace_path &&
      !obs::TraceBuffer::instance().writeChromeTrace(*trace_path)) {
    die("cannot write trace file '" + *trace_path + "'");
  }
  if (stats_path && !obs::writeStatsJson(*stats_path)) {
    die("cannot write stats file '" + *stats_path + "'");
  }
  if (metrics_path && !obs::writeOpenMetrics(*metrics_path)) {
    die("cannot write metrics file '" + *metrics_path + "'");
  }
  if (events_path) {
    obs::EventLog::instance().emitMetricsSnapshot();
    obs::EventLog::instance().close();
  }
  if (report) {
    std::fprintf(stderr, "threads: %zu effective (of %zu hardware)\n",
                 rt::threadCount(), rt::hardwareThreads());
    obs::PassTimer::instance().printReport(stderr);
  }
  return rc;
}
