// locwm benchmark driver: one closed-loop caller that times the public
// entry points of core, scan and check on seeded inputs, checks every
// output against ground truth, and prints one JSON result line.
//
//   locwm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work DIR [--git-describe STR] [--smoke]
//
// Workloads (README.md says why each was chosen):
//   mpeg2_roundtrip  seeded authors each embed 4 marks into MediaBench
//                    mpeg2, publish, and detect them again (+1 decoy)
//   workspace_lint   checkProject over ~2000 designs + schedules + ring,
//                    without a cache, then from a warm analysis cache; its
//                    traced run also scans 200 of the designs (scanCorpus)
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs the same rounds twice, untraced then wrapped in the driver's own
// spans, and prints the per-layer metrics plus the tracing overhead; the
// spans are kept in memory and written to DIR as a Chrome trace at exit.
#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <locwm/build_info.h>

#include "cdfg/csr.h"
#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "check/project.h"
#include "check/rules.h"
#include "check/workspace.h"
#include "core/certificate_io.h"
#include "core/locality.h"
#include "core/pc.h"
#include "core/sched_wm.h"
#include "crypto/sha256.h"
#include "obs/json.h"
#include "rt/rt.h"
#include "scan/corpus.h"
#include "scan/fingerprint.h"
#include "scan/scan.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"
#include "workloads/mediabench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace locwm;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// The rt pool size every workload runs at: one lane, so every parallel
/// region runs inline on the caller.  On a shared host, a pass that waits
/// for four lanes runs at the pace of the most contended core and its time
/// swung 25-45% between runs of the same code; one lane does not.  Fixed
/// so a result never depends on the machine's core count; the usable CPU
/// count is recorded in the provenance row instead.
constexpr std::size_t kThreads = 1;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string sha256Hex(const std::string& text) {
  return crypto::toHex(crypto::Sha256::hash(text));
}

// ---------------------------------------------------------------------------
// CPU accounting and spans

/// User + system CPU seconds of the whole process.
double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// In-memory span recorder.  Disabled, a scope costs one branch; enabled,
/// it records name, start, end and parent, and nothing leaves memory
/// until writeChromeTrace() at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    /// A null `name` records nothing.
    Scope(Tracer& t, const char* name)
        : tracer_(t.enabled_ && name != nullptr ? &t : nullptr) {
      if (tracer_ != nullptr) {
        index_ = tracer_->open(name);
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void setEnabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Total wall milliseconds of every span called `name`.
  [[nodiscard]] double totalMs(const std::string& name) const {
    double ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    return ns / 1e6;
  }

  /// Per-span wall microseconds of every span called `name`.
  [[nodiscard]] std::vector<double> samplesUs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Share of the wall time of spans named `op` covered by their direct
  /// children: the part of the timed operations the named layer calls
  /// account for.
  [[nodiscard]] double coverage(const std::string& op) const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    double total = 0;
    double covered = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == op) {
        total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
        covered += child_ns[i];
      }
    }
    return ratio(covered, total);
  }

  void writeChromeTrace(const fs::path& file) const {
    std::ofstream os(file, std::ios::trunc);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "{\"name\":" << obs::jsonString(s.name)
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << obs::jsonNumber(static_cast<double>(s.start_ns) / 1e3)
         << ",\"dur\":" << obs::jsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "]}\n";
  }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  int open(const char* name) {
    spans_.push_back(Span{name, now(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now();
    current_ = s.parent;
  }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

Tracer g_tracer;

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
#define SPAN(name) const Tracer::Scope PB_CAT(pb_span_, __LINE__)(g_tracer, name)

// ---------------------------------------------------------------------------
// Results

/// Counts shared by every workload.  An operation is an embed request, a
/// certificate check, a scanned design or an analysed artifact; it fails
/// when it throws or its verdict contradicts ground truth.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for stderr

  void fail(const std::string& why, std::uint64_t n = 1) {
    failed += n;
    if (failures.size() < 8) {
      failures.push_back(why);
    }
  }
};

/// Layer counts (core.pc.*, core.locality.*, scan.*, check.*).
using Counts = std::map<std::string, double>;

/// One pass of the timed loop: per round, the operations completed and the
/// wall time.
struct PassClock {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> rates;  // per round, operations per wall second

  void add(double ops, Clock::time_point start, double cpu_start) {
    const double s = secondsSince(start);
    wall_s += s;
    cpu_s += cpuSeconds() - cpu_start;
    rates.push_back(ratio(ops, s));
  }
  /// Throughput of the median round.  A round whose input is unusually
  /// cheap or dear (an mpeg2 author whose Pc enumeration runs to its
  /// budget), or that a stall of the shared machine hits, does not move it.
  [[nodiscard]] double perSecond() const { return median(rates); }
  [[nodiscard]] double cpuUtil() const {
    return ratio(cpu_s, wall_s * static_cast<double>(kThreads));
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  fs::path work;
  std::string git_describe = "unknown";
};

/// Pc outcomes of an aggregate: exact (ΨW > 0), the ΨW = 0 floor, and
/// certificates whose enumeration exceeded the budget (the aggregate
/// reports those as nullopt).
void countPcOutcomes(Counts& c, const wm::AggregatePc& pc) {
  for (const auto& est : pc.per_certificate) {
    c["core.pc.detected"] += 1;
    if (!est.has_value()) {
      c["core.pc.budget_exceeded"] += 1;
    } else if (est->schedules_constrained == 0) {
      c["core.pc.zero_constrained"] += 1;
    } else {
      c["core.pc.exact"] += 1;
    }
  }
}

/// A planted (certificate, design) pair the layer probes replay.
struct PlantedPair {
  crypto::AuthorSignature signature;
  const wm::WatermarkCertificate* cert = nullptr;
  const std::string* design_text = nullptr;
  const std::string* schedule_text = nullptr;
};

/// Key-binding probe: re-derives the locality at the root a certificate
/// matched, under a signature that did not embed it.  When the carve
/// consumes no key bits (every fanin node has a single input) the wrong
/// key yields the same locality, so the certificate also "detects" under
/// that key.  Counted, not failed: it is a property of the scheme.
void probeKeyBinding(const wm::LocalityDeriver& deriver, cdfg::NodeId root,
                     const wm::WatermarkCertificate& cert, Counts& c) {
  const crypto::AuthorSignature stranger{"perfbench-stranger", "key-binding"};
  crypto::KeyedBitstream bits(stranger, cert.context + "/carve");
  const auto loc = deriver.derive(root, cert.locality_params, bits);
  c["core.locality.key_independent"] += loc && wm::shapeEquals(loc->shape, cert.shape) ? 1 : 0;
}

/// Per-call derive probe: the cost of re-deriving a certificate's keyed
/// locality at one root, as the shape scan does at every root of the
/// certificate's root kind.  Capped so the traced run stays bounded.
void probeDerive(const std::vector<PlantedPair>& pairs, std::size_t max_samples) {
  if (pairs.empty()) {
    return;
  }
  const std::size_t per_pair = std::max<std::size_t>(8, max_samples / pairs.size());
  std::size_t taken = 0;
  for (const PlantedPair& p : pairs) {
    if (taken >= max_samples) {
      break;
    }
    const cdfg::Cdfg g = cdfg::parseString(*p.design_text);
    const wm::LocalityDeriver deriver(g);
    const cdfg::OpKind kind = p.cert->shape.node(cdfg::NodeId(p.cert->root_rank)).kind;
    std::vector<cdfg::NodeId> roots;
    for (const cdfg::NodeId r : deriver.candidateRoots()) {
      if (deriver.csr().kind(r) == kind) {
        roots.push_back(r);
      }
    }
    const std::size_t want = std::min({per_pair, roots.size(), max_samples - taken});
    for (std::size_t i = 0; i < want; ++i) {
      const cdfg::NodeId root = roots[i * roots.size() / want];
      SPAN("core.locality.derive");
      crypto::KeyedBitstream bits(p.signature, p.cert->context + "/carve");
      const auto loc = deriver.derive(root, p.cert->locality_params, bits);
      (void)loc;
    }
    taken += want;
  }
}

/// Replays the detect path (shape scan, constraint check, Pc) and the
/// embed path for planted pairs of workloads whose timed operation is a
/// single opaque entry point, so the core layers are timed on the
/// workload's own inputs.
void probeCore(const std::vector<PlantedPair>& pairs, std::uint32_t slack,
               std::uint64_t pc_steps, Counts& c) {
  for (const PlantedPair& p : pairs) {
    const cdfg::Cdfg g = cdfg::parseString(*p.design_text);
    const sched::Schedule s =
        sched::parseScheduleString(*p.schedule_text, g.nodeCount());
    const wm::LocalityDeriver deriver(g);
    const std::vector<cdfg::NodeId> roots = deriver.candidateRoots();
    const cdfg::OpKind kind = p.cert->shape.node(cdfg::NodeId(p.cert->root_rank)).kind;
    for (const cdfg::NodeId r : roots) {
      c["core.locality.roots_scanned"] += deriver.csr().kind(r) == kind ? 1 : 0;
    }
    std::optional<wm::SchedDetector> det;
    {
      SPAN("core.locality.shape_scan");
      det.emplace(p.signature, deriver, *p.cert, roots);
    }
    c["core.locality.shape_matches"] += static_cast<double>(det->shapeMatches());
    if (det->shapeMatches() > 0) {
      probeKeyBinding(deriver, det->matches().front().root, *p.cert, c);
    }
    wm::SchedDetectResult r;
    {
      SPAN("core.sched_wm.check");
      r = det->check(s);
    }
    if (r.found) {
      std::optional<wm::AggregatePc> pc;
      {
        SPAN("core.pc.exact");
        pc = wm::aggregateSchedulingPc({*p.cert}, slack, pc_steps);
      }
      countPcOutcomes(c, *pc);
    }
    // Embed probe: re-embed the pair's mark into a fresh copy of the
    // published design with the fixture's parameters.
    cdfg::Cdfg copy = g;
    wm::SchedWmParams params;
    params.locality.min_size = 4;
    params.min_eligible = 2;
    {
      SPAN("sched.timeframes");
      params.deadline = sched::TimeFrames(copy, params.latency).criticalPathSteps() + 3;
    }
    const std::size_t index = std::stoul(p.cert->context.substr(p.cert->context.rfind('/') + 1));
    std::optional<wm::SchedEmbedResult> e;
    {
      SPAN("core.sched_wm.embed");
      e = wm::SchedulingWatermarker(p.signature).embed(copy, params, index);
    }
    if (e.has_value()) {
      c["core.sched_wm.marks"] += 1;
      c["core.sched_wm.roots_tried"] += static_cast<double>(e->roots_tried);
    } else {
      c["core.sched_wm.embed_refused"] += 1;
      c["core.sched_wm.roots_tried"] += static_cast<double>(params.max_root_retries);
    }
  }
}

/// Layer probes over every design text a workload reads: parse, CSR
/// lowering, the scan fingerprint index and its cache codec, semantic
/// lint, time frames, list scheduling and SHA-256 digests.  `skip` names
/// layers the timed operations already time inline.
void probeDesigns(const std::vector<const std::string*>& texts,
                  std::uint32_t radius, const std::set<std::string>& skip) {
  const auto want = [&](const char* layer) { return skip.count(layer) == 0; };
  const auto timed = [&](const char* layer) { return want(layer) ? layer : nullptr; };
  for (const std::string* text : texts) {
    if (want("crypto.sha256")) {
      SPAN("crypto.sha256");
      (void)crypto::Sha256::hash(*text);
    }
    std::optional<cdfg::Cdfg> g;
    {
      SPAN(timed("cdfg.parse"));
      g = cdfg::parseString(*text);
    }
    std::optional<wm::LocalityDeriver> deriver;
    {
      SPAN(timed("cdfg.csr_lower"));
      deriver.emplace(*g);
    }
    if (want("scan.index")) {
      std::optional<scan::DesignIndex> index;
      {
        SPAN("scan.index");
        index = scan::buildDesignIndex(*deriver, radius);
      }
      SPAN("scan.cache_codec");
      const auto back = scan::parseIndex(scan::indexToString(*index));
      (void)back;
    }
    if (want("check.semantic")) {
      SPAN("check.semantic");
      (void)check::checkSemantics(*g);
    }
    if (want("sched.timeframes")) {
      SPAN("sched.timeframes");
      (void)sched::TimeFrames(*g, sched::LatencyModel::unit());
    }
    if (want("sched.list_schedule")) {
      SPAN("sched.list_schedule");
      (void)sched::listSchedule(*g);
    }
  }
}

/// The traced probes of workspace_lint's corpus: the core layers over
/// every planted (certificate, design) pair, at the scan's Pc settings
/// (deadline slack 1, ScanOptions::pc_max_steps), and the design layers
/// over every design.
void probeCorpus(const scan::BuiltCorpus& corpus, bool smoke, Counts& c) {
  std::vector<PlantedPair> pairs;
  for (const auto& [d, j] : corpus.planted) {
    const scan::KeyRingEntry& entry = corpus.ring.entries()[j];
    pairs.push_back({entry.signature, &*entry.sched, &corpus.items[d].design_text,
                     &corpus.items[d].schedule_text});
  }
  std::vector<const std::string*> texts;
  for (const auto& item : corpus.items) {
    texts.push_back(&item.design_text);
  }
  g_tracer.setEnabled(true);
  probeCore(pairs, /*slack=*/1, scan::ScanOptions{}.pc_max_steps, c);
  probeDerive(pairs, smoke ? 64 : 1200);
  probeDesigns(texts, std::max<std::uint32_t>(1, corpus.ring.maxRadius()), {});
  g_tracer.setEnabled(false);
}

// ---------------------------------------------------------------------------
// Workloads

/// What a workload hands back to main: end-to-end figures, layer counts
/// and the digest of the generated inputs.
struct WorkloadResult {
  double setup_s = 0;
  PassClock pass1;
  PassClock pass2;
  Counts counts;
  Tally tally;
  std::string inputs_sha256;
  double untraced_wall_s = 0;  // --trace 1: the untraced half
  double traced_wall_s = 0;    // --trace 1: the same rounds, traced
  std::string op1;             // span names of the two timed passes
  std::string op2;
};

/// Runs `round(r)` for r = 0, 1, ... closed-loop: exactly `count` rounds
/// when nonzero, otherwise until the next round would pass the time budget
/// (at least one).  Returns the rounds run.
std::size_t runRounds(double seconds, const std::function<void(std::size_t)>& round,
                      std::size_t count = 0) {
  const auto start = Clock::now();
  std::size_t done = 0;
  double longest = 0;
  while (count > 0 ? done < count
                   : done == 0 || secondsSince(start) + longest <= seconds) {
    const auto t = Clock::now();
    round(done);
    longest = std::max(longest, secondsSince(t));
    ++done;
  }
  return done;
}

/// Deletes a cache directory before a cold pass and flushes dirty pages,
/// so the timed pass does not pay for the previous round's write-back.
void dropCache(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  ::sync();
}

/// Measures setup `reps` times and returns the median seconds.
double timeSetup(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    setup();
    times.push_back(secondsSince(t));
  }
  return median(times);
}

/// The timed loop shared by the workloads.  --trace 0 runs rounds for the
/// whole budget untraced; --trace 1 runs them for half of it untraced and
/// then repeats the same rounds with spans on.
void timedLoop(const Options& opt, WorkloadResult& res,
               const std::function<void(std::size_t)>& round) {
  if (!opt.trace) {
    runRounds(opt.seconds, round);
    return;
  }
  const auto u = Clock::now();
  const std::size_t n = runRounds(opt.seconds / 2, round);
  res.untraced_wall_s = secondsSince(u);
  const PassClock p1 = res.pass1;
  const PassClock p2 = res.pass2;
  const Counts counts = res.counts;
  g_tracer.setEnabled(true);
  const auto t = Clock::now();
  runRounds(0, round, n);
  res.traced_wall_s = secondsSince(t);
  g_tracer.setEnabled(false);
  // Throughput, CPU utilisation and counts come from the untraced half.
  res.pass1 = p1;
  res.pass2 = p2;
  res.counts = counts;
}

// --- mpeg2_roundtrip -------------------------------------------------------

void mpeg2Roundtrip(const Options& opt, WorkloadResult& res) {
  constexpr std::size_t kMarks = 4;
  // Embedding an author's marks takes ~1/80 of detecting them on one
  // lane, and its cost per author is heavy-tailed (a refused mark retries
  // 128 roots).  So a round embeds for kAuthorsPerRound authors and
  // verifies the first: the embed median rests on ~100 authors in a 50-s
  // run, spread over the run, instead of the ~8 that are verified.
  constexpr std::size_t kAuthorsPerRound = 12;
  const std::string profile_name = opt.smoke ? "adpcm" : "mpeg2";
  workloads::MediaBenchProfile profile;
  for (const auto& p : workloads::mediaBenchProfiles()) {
    if (p.name == profile_name) {
      profile = p;
    }
  }
  const auto author = [&](std::size_t r) {
    return crypto::AuthorSignature{
        "author-" + std::to_string(opt.seed) + "-" + std::to_string(r), profile.name};
  };

  cdfg::Cdfg original;
  // Generating mpeg2 takes ~5 ms, so its median needs many repetitions.
  res.setup_s = timeSetup(51, [&] {
    original = workloads::buildMediaBench(profile);
    std::string inputs = cdfg::printToString(original);
    for (std::size_t r = 0; r < 256; ++r) {
      inputs += author(r).identity + "\n";
    }
    res.inputs_sha256 = sha256Hex(inputs);
  });

  // What an author publishes (design without temporal edges, schedule,
  // certificate texts) plus, for the oracle and the probes, the marks'
  // certificates and the roots they were embedded at.
  struct Published {
    crypto::AuthorSignature sig;
    std::string design;
    std::string schedule;
    std::vector<std::string> cert_texts;
    std::vector<wm::WatermarkCertificate> certs;
    std::vector<cdfg::NodeId> roots;
  };
  std::vector<Published> verified;  // kept in traced rounds, for the probes
  Counts& c = res.counts;
  Tally& tally = res.tally;

  // Pass 1: author r embeds kMarks marks, schedules and publishes.
  const auto embed = [&](std::size_t r) {
    const auto t = Clock::now();
    const double cpu = cpuSeconds();
    SPAN("op.embed");
    Published pub;
    pub.sig = author(r);
    cdfg::Cdfg g = original;
    const wm::SchedulingWatermarker marker(pub.sig);
    wm::SchedWmParams params;
    {
      SPAN("sched.timeframes");
      params.deadline = sched::TimeFrames(g, params.latency).criticalPathSteps() + 3;
    }
    params.locality.min_size = 4;
    params.min_eligible = 2;
    for (std::size_t i = 0; i < kMarks; ++i) {
      tally.attempted += 1;
      std::optional<wm::SchedEmbedResult> e;
      try {
        SPAN("core.sched_wm.embed");
        e = marker.embed(g, params, i);
      } catch (const std::exception& ex) {
        tally.fail("author " + pub.sig.identity + ": embed threw: " + ex.what());
        continue;
      }
      if (!e.has_value()) {
        // A legitimate refusal: the earlier marks used up the slack the
        // deadline leaves, so no root's locality stays eligible.  The
        // CLI's embed --marks skips such a mark the same way.
        c["core.sched_wm.embed_refused"] += 1;
        c["core.sched_wm.roots_tried"] += static_cast<double>(params.max_root_retries);
        continue;
      }
      c["core.sched_wm.roots_tried"] += static_cast<double>(e->roots_tried);
      c["core.sched_wm.marks"] += 1;
      pub.roots.push_back(e->locality.root);
      pub.certs.push_back(e->certificate);
    }
    sched::Schedule s;
    {
      SPAN("sched.list_schedule");
      s = sched::listSchedule(g);
    }
    {
      SPAN("cdfg.publish");
      const cdfg::Cdfg stripped = g.stripTemporalEdges();
      pub.design = cdfg::printToString(stripped);
      pub.schedule = sched::scheduleToString(stripped, s);
      for (const auto& cert : pub.certs) {
        pub.cert_texts.push_back(wm::certificateToString(cert));
      }
    }
    res.pass1.add(static_cast<double>(kMarks), t, cpu);
    return pub;
  };

  // Pass 2: a verifier re-parses the published artifacts and checks every
  // certificate, plus one decoy: the first certificate with every
  // constraint reversed.  Its unit of work is a candidate root: a check
  // re-derives the keyed locality at every root of the certificate's root
  // kind, and that count (a property of the suspect and the certificate,
  // 600-3200 per author in mpeg2) sets most of the check's cost.  Counting
  // certificates instead made the pass's throughput swing with the seed's
  // root kinds.  At the root the genuine mark was embedded at,
  // the schedule satisfies each original constraint and so violates each
  // reversed one; the decoy can match only at another occurrence of the
  // locality shape, by a coincidence whose odds Pc bounds.
  const auto detect = [&](const Published& pub) {
    const std::string label = "author " + pub.sig.identity;
    const auto t = Clock::now();
    const double cpu = cpuSeconds();
    SPAN("op.detect");
    double kind_roots = 0;
    try {
      std::optional<cdfg::Cdfg> suspect;
      {
        SPAN("cdfg.parse");
        suspect = cdfg::parseString(pub.design);
      }
      sched::Schedule s;
      std::vector<wm::WatermarkCertificate> certs;
      {
        SPAN("io.parse_artifacts");
        s = sched::parseScheduleString(pub.schedule, suspect->nodeCount());
        for (const std::string& text : pub.cert_texts) {
          std::istringstream is(text);
          certs.push_back(wm::parseSchedCertificate(is));
        }
      }
      std::optional<wm::LocalityDeriver> deriver;
      {
        SPAN("cdfg.csr_lower");
        deriver.emplace(*suspect);
      }
      std::vector<cdfg::NodeId> roots;
      {
        SPAN("core.locality.candidate_roots");
        roots = deriver->candidateRoots();
      }
      const std::size_t genuine = certs.size();
      if (!certs.empty()) {
        wm::WatermarkCertificate decoy = certs.front();
        for (wm::RankConstraint& rc : decoy.constraints) {
          std::swap(rc.before_rank, rc.after_rank);
        }
        certs.push_back(std::move(decoy));
      }
      std::vector<wm::WatermarkCertificate> detected;
      for (std::size_t i = 0; i < certs.size(); ++i) {
        const wm::WatermarkCertificate& cert = certs[i];
        tally.attempted += 1;
        const cdfg::OpKind kind = cert.shape.node(cdfg::NodeId(cert.root_rank)).kind;
        for (const cdfg::NodeId root : roots) {
          kind_roots += deriver->csr().kind(root) == kind ? 1 : 0;
        }
        std::optional<wm::SchedDetector> det;
        {
          SPAN("core.locality.shape_scan");
          det.emplace(pub.sig, *deriver, cert, roots);
        }
        wm::SchedDetectResult verdict;
        {
          SPAN("core.sched_wm.check");
          verdict = det->check(s);
        }
        c["core.locality.shape_matches"] += static_cast<double>(det->shapeMatches());
        if (i == genuine) {
          if (verdict.found && verdict.root == pub.roots.front()) {
            tally.fail(label + ": reversed decoy matched at the genuine root");
          } else if (verdict.found) {
            c["core.sched_wm.decoy_coincidences"] += 1;
          }
        } else if (!verdict.found || verdict.satisfied != verdict.total) {
          tally.fail(label + ": planted mark " + std::to_string(i) + " not detected (" +
                     std::to_string(verdict.satisfied) + "/" +
                     std::to_string(verdict.total) + ")");
        } else {
          detected.push_back(cert);
        }
      }
      // Exact Pc of every detected mark at the CLI's deadline slack of 2,
      // enumerated in parallel, one certificate per task.
      std::optional<wm::AggregatePc> pc;
      {
        SPAN("core.pc.exact");
        pc = wm::aggregateSchedulingPc(detected, /*deadline_slack=*/2);
      }
      countPcOutcomes(c, *pc);
    } catch (const std::exception& e) {
      tally.fail(label + ": detect threw: " + e.what());
    }
    c["core.locality.roots_scanned"] += kind_roots;
    res.pass2.add(kind_roots, t, cpu);
  };

  timedLoop(opt, res, [&](std::size_t r) {
    Published pub = embed(kAuthorsPerRound * r);
    for (std::size_t a = 1; a < kAuthorsPerRound; ++a) {
      (void)embed(kAuthorsPerRound * r + a);
    }
    detect(pub);
    if (g_tracer.enabled()) {
      verified.push_back(std::move(pub));
    }
  });
  res.op1 = "op.embed";
  res.op2 = "op.detect";

  if (opt.trace) {
    std::vector<PlantedPair> pairs;
    std::vector<const std::string*> texts;
    for (const Published& p : verified) {
      const cdfg::Cdfg g = cdfg::parseString(p.design);
      const wm::LocalityDeriver deriver(g);
      for (std::size_t i = 0; i < p.certs.size(); ++i) {
        probeKeyBinding(deriver, p.roots[i], p.certs[i], c);
        pairs.push_back({p.sig, &p.certs[i], &p.design, &p.schedule});
      }
      texts.push_back(&p.design);
    }
    std::uint32_t radius = 1;
    for (const PlantedPair& p : pairs) {
      radius = std::max(radius, p.cert->locality_params.max_distance);
    }
    g_tracer.setEnabled(true);
    probeDerive(pairs, opt.smoke ? 64 : 1200);
    probeDesigns(texts, radius,
                 {"cdfg.parse", "cdfg.csr_lower", "sched.timeframes", "sched.list_schedule"});
    g_tracer.setEnabled(false);
  }
}

// --- scan probe (traced workspace_lint) -----------------------------------

/// Match rows (type "match") of a scan, in order.
std::vector<std::string> matchRows(const std::vector<std::string>& rows) {
  std::vector<std::string> out;
  for (const std::string& row : rows) {
    if (row.find("\"type\":\"match\"") != std::string::npos) {
      out.push_back(row);
    }
  }
  return out;
}

/// A design row with its "cache" field blanked, for cold/warm comparison.
std::string withoutCacheField(std::string row) {
  const std::string key = "\"cache\":\"";
  const std::size_t at = row.find(key);
  if (at != std::string::npos) {
    const std::size_t end = row.find('"', at + key.size());
    row.erase(at + key.size(), end - at - key.size());
  }
  return row;
}

/// Checks one scan of the first `items.size()` designs of `corpus`
/// against the planted ground truth: one design block per item, every
/// certificate planted in those designs found.
void checkScanRows(const scan::BuiltCorpus& corpus, const std::vector<scan::CorpusItem>& items,
                   const scan::ScanResult& result, const char* pass, Tally& tally) {
  std::size_t blocks = 0;
  std::set<std::string> found;
  for (const std::string& row : result.rows) {
    if (row.find("\"type\":\"design\"") != std::string::npos) {
      if (row.find("\"error\"") != std::string::npos) {
        tally.fail(std::string(pass) + ": design row with error");
      }
      ++blocks;
    } else if (row.find("\"found\":true") != std::string::npos) {
      found.insert(row.substr(0, row.find(",\"found\"")));
    }
  }
  if (blocks != items.size()) {
    tally.fail(std::string(pass) + ": " + std::to_string(blocks) + " design rows");
  }
  for (const auto& [d, j] : corpus.planted) {
    if (d >= items.size()) {
      continue;
    }
    const std::string& cert = corpus.ring.entries()[j].cert_path;
    const std::string key = "{\"cert\":" + obs::jsonString(cert) +
                            ",\"design\":" + obs::jsonString(items[d].path);
    if (found.count(key) == 0) {
      tally.fail(std::string(pass) + ": planted " + cert + " not found in " + items[d].path);
    }
  }
}

/// The scan layer on the workspace's own inputs: `scanCorpus` with the
/// pre-filter on over the first `designs` designs and the whole ring,
/// with a cold fingerprint cache and then a warm one.  Records ScanStats
/// and checks the scan oracles: planted recall 1.0, cold and warm rows
/// equal but for their "cache" field, every design cold then warm, and an
/// exact-only replay (pre-filter off) over every 25th design giving the
/// same match rows.
void probeScan(const scan::BuiltCorpus& corpus, std::size_t designs, const fs::path& cache,
               Counts& c, Tally& tally) {
  const std::vector<scan::CorpusItem> items(
      corpus.items.begin(),
      corpus.items.begin() + static_cast<std::ptrdiff_t>(std::min(designs, corpus.items.size())));
  scan::ScanOptions options;
  options.cache_dir = cache.string();
  dropCache(cache);
  scan::ScanResult cold;
  scan::ScanResult warm;
  g_tracer.setEnabled(true);
  {
    SPAN("scan.corpus_cold");
    cold = scan::scanCorpus(items, corpus.ring, options);
  }
  {
    SPAN("scan.corpus_warm");
    warm = scan::scanCorpus(items, corpus.ring, options);
  }
  g_tracer.setEnabled(false);
  tally.attempted += 2 * items.size();
  checkScanRows(corpus, items, cold, "cold scan", tally);
  checkScanRows(corpus, items, warm, "warm scan", tally);
  if (cold.stats.cache_cold != items.size() || warm.stats.cache_warm != items.size()) {
    tally.fail("cache: cold " + std::to_string(cold.stats.cache_cold) + ", warm " +
               std::to_string(warm.stats.cache_warm) + " of " + std::to_string(items.size()));
  }
  bool same = cold.rows.size() == warm.rows.size();
  for (std::size_t i = 0; same && i < cold.rows.size(); ++i) {
    same = withoutCacheField(cold.rows[i]) == withoutCacheField(warm.rows[i]);
  }
  if (!same) {
    tally.fail("cold and warm rows differ beyond the cache field", items.size());
  }
  const scan::ScanStats& st = cold.stats;
  c["scan.pairs"] = static_cast<double>(st.pairs);
  c["scan.pruned_pairs"] = static_cast<double>(st.pruned_pairs);
  c["scan.survivor_pairs"] = static_cast<double>(st.survivor_pairs);
  c["scan.candidate_roots"] = static_cast<double>(st.candidate_roots);
  c["scan.match_pairs"] = static_cast<double>(st.match_pairs);
  c["scan.cache_cold"] = static_cast<double>(st.cache_cold);
  c["scan.cache_warm"] = static_cast<double>(warm.stats.cache_warm);

  scan::ScanOptions exact;
  exact.prefilter = false;
  std::vector<scan::CorpusItem> sample;
  std::vector<std::string> expected;
  for (std::size_t d = 0; d < items.size(); d += 25) {
    sample.push_back(items[d]);
    const std::string tag = ",\"design\":" + obs::jsonString(items[d].path) + ",";
    for (const std::string& row : matchRows(cold.rows)) {
      if (row.find(tag) != std::string::npos) {
        expected.push_back(row);
      }
    }
  }
  tally.attempted += sample.size();
  if (matchRows(scan::scanCorpus(sample, corpus.ring, exact).rows) != expected) {
    tally.fail("exact-only replay disagrees with the pre-filtered scan", sample.size());
  }
}

// --- workspace_lint --------------------------------------------------------

void workspaceLint(const Options& opt, WorkloadResult& res) {
  // The traced run scans this many of the workspace's designs against its
  // whole ring: ~3 s a pass on one lane.
  constexpr std::size_t kScanProbeDesigns = 200;
  scan::CorpusSpec spec;
  spec.designs = opt.smoke ? 40 : 2000;
  spec.ring = opt.smoke ? 8 : 100;
  spec.ops_min = 48;
  spec.ops_max = 112;
  const fs::path root = opt.work / "workspace_lint";
  const fs::path ws_dir = root / "ws";
  const fs::path manifest = ws_dir / "workspace.manifest";
  const fs::path cache = root / "lint-cache";
  scan::BuiltCorpus corpus;
  std::size_t artifacts = 0;
  res.setup_s = timeSetup(3, [&] {
    std::error_code ec;
    fs::remove_all(ws_dir, ec);
    corpus = scan::buildRandomCorpus(spec, opt.seed);
    scan::writeCorpus(corpus, ws_dir.string());
    std::string text = "locwm-workspace v1\n";
    for (const auto& item : corpus.items) {
      text += "artifact " + item.path + "\n";
      text += "artifact " + item.schedule_path + " design=" + item.path + "\n";
    }
    for (const auto& [d, j] : corpus.planted) {
      text += "artifact " + corpus.ring.entries()[j].cert_path +
              " design=" + corpus.items[d].path + "\n";
    }
    std::ofstream(manifest, std::ios::trunc) << text;
    artifacts = 2 * corpus.items.size() + corpus.planted.size();
    for (const auto& item : corpus.items) {
      text += item.design_text + item.schedule_text;
    }
    for (const std::string& cert : corpus.cert_texts) {
      text += cert;
    }
    res.inputs_sha256 = sha256Hex(text);
  });

  // On a disk, writing the ~6000 cache entries of a cold pass swung its
  // time 2.8x from run to run, so the timed passes are the cacheless
  // analysis (`lint --project --no-cache`) and the warm pass; the cold
  // pass that fills the cache runs once, untimed, and feeds the oracle.
  check::ProjectOptions cached;
  cached.cache_dir = cache.string();
  const check::ProjectOptions uncached;
  Counts& c = res.counts;
  Tally& tally = res.tally;

  struct Lint {
    std::string report;
    check::ProjectStats stats;
  };
  const auto lint = [&](const char* op, const check::ProjectOptions& options) {
    SPAN(op);
    std::optional<check::Workspace> ws;
    {
      SPAN("check.workspace_load");
      ws = check::Workspace::fromManifestFile(manifest.string());
    }
    std::optional<check::ProjectResult> result;
    {
      SPAN("check.project");
      result = check::checkProject(*ws, options);
    }
    Lint out;
    {
      SPAN("check.render");
      out.report = result->report.renderText();
    }
    out.stats = result->stats;
    if (ws->artifacts().size() != artifacts) {
      tally.fail("workspace loaded " + std::to_string(ws->artifacts().size()) + " artifacts");
    }
    c["check.findings"] = static_cast<double>(result->report.diagnostics().size());
    return out;
  };

  dropCache(cache);
  const Lint cold = lint("op.lint_fill", cached);
  c["check.cache_stores"] = static_cast<double>(cold.stats.cache_stores);
  ::sync();

  const auto round = [&](std::size_t) {
    Lint plain;
    Lint warm;
    {
      const auto t = Clock::now();
      const double cpu = cpuSeconds();
      plain = lint("op.lint_uncached", uncached);
      res.pass1.add(static_cast<double>(artifacts), t, cpu);
    }
    {
      const auto t = Clock::now();
      const double cpu = cpuSeconds();
      warm = lint("op.lint_warm", cached);
      res.pass2.add(static_cast<double>(artifacts), t, cpu);
    }
    tally.attempted += 2 * artifacts;
    if (plain.report != cold.report) {
      tally.fail("cacheless report differs from the cold report", artifacts);
    }
    if (warm.report != cold.report) {
      tally.fail("warm report differs from the cold report", artifacts);
    }
    if (warm.stats.cache_probes == 0 || warm.stats.cache_hits != warm.stats.cache_probes) {
      tally.fail("warm run missed the cache (" + std::to_string(warm.stats.cache_hits) + "/" +
                     std::to_string(warm.stats.cache_probes) + ")",
                 artifacts);
    }
    c["check.cache_probes"] = static_cast<double>(warm.stats.cache_probes);
    c["check.cache_hits"] = static_cast<double>(warm.stats.cache_hits);
  };
  timedLoop(opt, res, round);
  res.op1 = "op.lint_uncached";
  res.op2 = "op.lint_warm";

  if (opt.trace) {
    probeCorpus(corpus, opt.smoke, c);
    probeScan(corpus, kScanProbeDesigns, root / "scan-cache", c, tally);
  }
}

// ---------------------------------------------------------------------------
// Provenance and output

std::size_t usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 0;
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpuModel() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string filesystemType(const fs::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0x858458f6UL:
      return "ramfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794c7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + obs::jsonString(metrics[i].name) + ": {\"value\": " +
           obs::jsonNumber(metrics[i].value) + ", \"unit\": " + obs::jsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::vector<Metric> endToEnd(const WorkloadResult& r) {
  return {
      {"setup_s", r.setup_s, "s"},
      {"first_pass_ops_per_s", r.pass1.perSecond(), "1/s"},
      {"second_pass_ops_per_s", r.pass2.perSecond(), "1/s"},
      {"peak_rss_mib", peakRssMib(), "MiB"},
  };
}

std::vector<Metric> perLayer(const WorkloadResult& r) {
  const Tracer& t = g_tracer;
  const Counts& c = r.counts;
  const auto count = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const std::vector<double> derive = t.samplesUs("core.locality.derive");
  const std::vector<double> checks = t.samplesUs("core.sched_wm.check");
  const double timed_traced =
      t.totalMs(r.op1) + t.totalMs(r.op2);
  const double coverage =
      ratio(t.coverage(r.op1) * t.totalMs(r.op1) + t.coverage(r.op2) * t.totalMs(r.op2),
            timed_traced);
  return {
      {"cdfg.parse_ms", t.totalMs("cdfg.parse"), "ms"},
      {"cdfg.csr_lower_ms", t.totalMs("cdfg.csr_lower"), "ms"},
      {"core.locality.shape_scan_ms", t.totalMs("core.locality.shape_scan"), "ms"},
      {"core.locality.roots_scanned", count("core.locality.roots_scanned"), "count"},
      {"core.locality.shape_matches", count("core.locality.shape_matches"), "count"},
      {"core.locality.key_independent", count("core.locality.key_independent"), "count"},
      {"core.locality.derive_us_p50", percentile(derive, 0.50), "us"},
      {"core.locality.derive_us_p99", percentile(derive, 0.99), "us"},
      {"core.sched_wm.embed_ms", t.totalMs("core.sched_wm.embed"), "ms"},
      {"core.sched_wm.roots_tried", count("core.sched_wm.roots_tried"), "count"},
      {"core.sched_wm.marks_per_root_tried",
       ratio(count("core.sched_wm.marks"), count("core.sched_wm.roots_tried")), "ratio"},
      {"core.sched_wm.embed_refused", count("core.sched_wm.embed_refused"), "count"},
      {"core.sched_wm.check_us", median(checks), "us"},
      {"core.sched_wm.decoy_coincidences", count("core.sched_wm.decoy_coincidences"), "count"},
      {"core.pc.exact_ms", t.totalMs("core.pc.exact"), "ms"},
      {"core.pc.exact", count("core.pc.exact"), "count"},
      {"core.pc.budget_exceeded", count("core.pc.budget_exceeded"), "count"},
      {"core.pc.zero_constrained", count("core.pc.zero_constrained"), "count"},
      {"core.pc.exact_share", ratio(count("core.pc.exact"), count("core.pc.detected")), "ratio"},
      {"sched.timeframes_ms", t.totalMs("sched.timeframes"), "ms"},
      {"sched.list_schedule_ms", t.totalMs("sched.list_schedule"), "ms"},
      {"scan.index_ms", t.totalMs("scan.index"), "ms"},
      {"scan.cache_codec_ms", t.totalMs("scan.cache_codec"), "ms"},
      {"scan.corpus_cold_ms", t.totalMs("scan.corpus_cold"), "ms"},
      {"scan.corpus_warm_ms", t.totalMs("scan.corpus_warm"), "ms"},
      {"scan.pairs", count("scan.pairs"), "count"},
      {"scan.pruned_pairs", count("scan.pruned_pairs"), "count"},
      {"scan.survivor_pairs", count("scan.survivor_pairs"), "count"},
      {"scan.candidate_roots", count("scan.candidate_roots"), "count"},
      {"scan.match_pairs", count("scan.match_pairs"), "count"},
      {"scan.cache_cold", count("scan.cache_cold"), "count"},
      {"scan.cache_warm", count("scan.cache_warm"), "count"},
      {"scan.prune_ratio", ratio(count("scan.pruned_pairs"), count("scan.pairs")), "ratio"},
      {"scan.precision", ratio(count("scan.match_pairs"), count("scan.survivor_pairs")), "ratio"},
      {"check.semantic_ms", t.totalMs("check.semantic"), "ms"},
      {"check.cache_probes", count("check.cache_probes"), "count"},
      {"check.cache_hits", count("check.cache_hits"), "count"},
      {"check.cache_stores", count("check.cache_stores"), "count"},
      {"check.findings", count("check.findings"), "count"},
      {"crypto.sha256_ms", t.totalMs("crypto.sha256"), "ms"},
      {"rt.cpu_util.first_pass", r.pass1.cpuUtil(), "ratio"},
      {"rt.cpu_util.second_pass", r.pass2.cpuUtil(), "ratio"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead_ms", 1e3 * (r.traced_wall_s - r.untraced_wall_s), "ms"},
      {"failed_share",
       ratio(static_cast<double>(r.tally.failed), static_cast<double>(r.tally.attempted)),
       "ratio"},
  };
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "locwm_perfbench: %s\n"
               "usage: locwm_perfbench --workload mpeg2_roundtrip|workspace_lint "
               "--seed N --seconds S --trace 0|1 --work DIR "
               "[--git-describe STR] [--smoke]\n",
               why);
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options opt;
  bool have_work = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("option " + a + " needs a value").c_str());
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--work") {
      opt.work = v;
      have_work = true;
    } else if (a == "--git-describe") {
      opt.git_describe = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_work) {
    usage("--work is required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseOptions(argc, argv);
  rt::setThreadCount(kThreads);
  fs::create_directories(opt.work / opt.workload);

  WorkloadResult res;
  try {
    if (opt.workload == "mpeg2_roundtrip") {
      mpeg2Roundtrip(opt, res);
    } else if (opt.workload == "workspace_lint") {
      workspaceLint(opt, res);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "locwm_perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& why : res.tally.failures) {
    std::fprintf(stderr, "locwm_perfbench: FAILED: %s\n", why.c_str());
  }

  const std::vector<Metric> metrics = opt.trace ? perLayer(res) : endToEnd(res);
  const bool correct = res.tally.failed == 0 && res.tally.attempted > 0;

  // Provenance: enough to tell a regression from a machine or input change.
  const std::string provenance =
      "{\"type\": \"provenance\", \"workload\": " + obs::jsonString(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"threads\": " + std::to_string(kThreads) +
      ", \"usable_cpus\": " + std::to_string(usableCpus()) +
      ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + obs::jsonString(cpuModel()) +
      ", \"compiler\": " + obs::jsonString(PERFBENCH_COMPILER) +
      ", \"build_type\": " + obs::jsonString(LOCWM_BUILD_TYPE) +
      ", \"git_describe\": " + obs::jsonString(opt.git_describe) +
      ", \"inputs_sha256\": " + obs::jsonString(res.inputs_sha256) +
      ", \"cache_fs\": " + obs::jsonString(filesystemType(opt.work / opt.workload)) + "}";
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(res.tally.attempted) +
      ", \"failed\": " + std::to_string(res.tally.failed) +
      ", \"metrics\": " + metricsJson(metrics) + "}";

  if (opt.trace) {
    g_tracer.writeChromeTrace(opt.work / opt.workload /
                              ("trace-seed" + std::to_string(opt.seed) + ".json"));
  }
  {
    std::ofstream row(opt.work / opt.workload /
                          ("row-seed" + std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json"),
                      std::ios::trunc);
    row << "{\"provenance\": " << provenance << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n%s\n", provenance.c_str(), result.c_str());
  std::fflush(stdout);
  return 0;
}
