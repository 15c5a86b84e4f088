#include "sched/enumeration.h"

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "cdfg/error.h"
#include "obs/obs.h"
#include "sched/timeframes.h"

namespace locwm::sched {

using cdfg::EdgeId;
using cdfg::NodeId;

namespace {

struct Enumerator {
  const cdfg::Cdfg* g = nullptr;
  const EnumerationOptions* options = nullptr;
  std::vector<NodeId> order;        // real ops in topo order
  std::vector<std::uint32_t> alap;  // static upper bound per node value
  std::vector<std::uint32_t> start;
  // before[v] / after[v]: extra-edge partners of v, by node value.
  std::vector<std::vector<NodeId>> extra_before;  // u in extra_before[v]: u -> v
  std::vector<std::uint32_t> window_lo;           // explicit lower bounds
  // Flattened per-node predecessor constraints (CSR-style): for node v,
  // entries [pred_off[v], pred_off[v+1]) of pred_src/pred_gap hold the
  // source node value and latency gap of every constraining in-edge.
  // Built once in makeEnumerator with the temporal/zero-latency filtering
  // already applied, so the exponential recursion below touches only
  // these three flat arrays instead of chasing inEdges -> edge -> node
  // through the builder graph at every step.
  std::vector<std::uint32_t> pred_off;
  std::vector<std::uint32_t> pred_src;
  std::vector<std::uint32_t> pred_gap;
  std::uint64_t steps = 0;
  bool budget_hit = false;
  std::uint64_t count = 0;
  const std::function<bool(const Schedule&)>* visit = nullptr;
  bool stop_requested = false;

  void run(std::size_t index) {
    if (budget_hit || stop_requested) {
      return;
    }
    if (++steps > options->max_steps) {
      budget_hit = true;
      return;
    }
    if (index == order.size()) {
      ++count;
      if (visit != nullptr) {
        Schedule s(g->nodeCount());
        for (const NodeId v : order) {
          s.set(v, start[v.value()]);
        }
        // Pin pseudo-ops for the callback's benefit.
        for (const NodeId v : g->topologicalOrder(options->honor_temporal)) {
          if (s.isSet(v)) {
            continue;
          }
          std::uint32_t t = 0;
          for (const EdgeId e : g->inEdges(v)) {
            const cdfg::Edge& ed = g->edge(e);
            if (ed.kind == cdfg::EdgeKind::kTemporal &&
                !options->honor_temporal) {
              continue;
            }
            if (s.isSet(ed.src)) {
              const std::uint32_t gap =
                  options->latency.edgeGap(g->node(ed.src).kind, ed.kind);
              t = std::max(t, s.at(ed.src) + gap);
            }
          }
          s.set(v, t);
        }
        if (!(*visit)(s)) {
          stop_requested = true;
        }
      }
      return;
    }
    const NodeId v = order[index];
    std::uint32_t lo = window_lo[v.value()];
    // max() over the constraints is order-independent, so the flattened
    // arrays reproduce the inEdges walk exactly.
    for (std::uint32_t i = pred_off[v.value()]; i < pred_off[v.value() + 1];
         ++i) {
      lo = std::max(lo, start[pred_src[i]] + pred_gap[i]);
    }
    for (const NodeId u : extra_before[v.value()]) {
      lo = std::max(lo, start[u.value()] + 1);
    }
    for (std::uint32_t t = lo; t <= alap[v.value()]; ++t) {
      start[v.value()] = t;
      run(index + 1);
      if (budget_hit || stop_requested) {
        return;
      }
    }
  }
};

Enumerator makeEnumerator(const cdfg::Cdfg& g,
                          const EnumerationOptions& options) {
  Enumerator en;
  en.g = &g;
  en.options = &options;
  en.start.assign(g.nodeCount(), 0);
  en.alap.assign(g.nodeCount(), 0);
  en.extra_before.assign(g.nodeCount(), {});

  const TimeFrames tf(g, options.latency, options.deadline,
                      options.honor_temporal);
  for (const NodeId v : g.allNodes()) {
    en.alap[v.value()] = tf.alap(v);
  }
  // Flatten the recursion's constraint lookups (see Enumerator comment).
  en.pred_off.assign(g.nodeCount() + 1, 0);
  for (std::size_t i = 0; i < g.nodeCount(); ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    for (const EdgeId e : g.inEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
        continue;
      }
      if (options.latency.latency(g.node(ed.src).kind) == 0) {
        continue;
      }
      en.pred_src.push_back(ed.src.value());
      en.pred_gap.push_back(options.latency.edgeGap(g.node(ed.src).kind,
                                                    ed.kind));
    }
    en.pred_off[i + 1] = static_cast<std::uint32_t>(en.pred_src.size());
  }

  en.window_lo.assign(g.nodeCount(), 0);
  for (const EnumerationOptions::Window& w : options.windows) {
    detail::check<ScheduleError>(
        w.node.isValid() && w.node.value() < g.nodeCount() && w.lo <= w.hi,
        "countSchedules: malformed window override");
    en.window_lo[w.node.value()] =
        std::max(en.window_lo[w.node.value()], w.lo);
    en.alap[w.node.value()] = std::min(en.alap[w.node.value()], w.hi);
  }

  // Enumeration order must place every constraint source before its
  // destination, including the extra edges — build a topological order over
  // graph edges + extra edges (Kahn, lowest id first for determinism).
  std::vector<std::size_t> indegree(g.nodeCount(), 0);
  std::vector<std::vector<NodeId>> succ(g.nodeCount());
  auto link = [&](NodeId a, NodeId b) {
    succ[a.value()].push_back(b);
    ++indegree[b.value()];
  };
  for (const EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
      continue;
    }
    link(ed.src, ed.dst);
  }
  for (const auto& [src, dst] : options.extra_edges) {
    detail::check<ScheduleError>(
        options.latency.latency(g.node(src).kind) > 0 &&
            options.latency.latency(g.node(dst).kind) > 0,
        "countSchedules: extra edge endpoint is a pseudo-op");
    link(src, dst);
    en.extra_before[dst.value()].push_back(src);
  }
  std::vector<NodeId> kahn_ready;
  for (const NodeId v : g.allNodes()) {
    if (indegree[v.value()] == 0) {
      kahn_ready.push_back(v);
    }
  }
  std::size_t emitted = 0;
  while (!kahn_ready.empty()) {
    std::sort(kahn_ready.begin(), kahn_ready.end());
    const NodeId v = kahn_ready.front();
    kahn_ready.erase(kahn_ready.begin());
    ++emitted;
    if (options.latency.latency(g.node(v).kind) > 0) {
      en.order.push_back(v);
    }
    for (const NodeId s : succ[v.value()]) {
      if (--indegree[s.value()] == 0) {
        kahn_ready.push_back(s);
      }
    }
  }
  detail::check<ScheduleError>(
      emitted == g.nodeCount(),
      "countSchedules: extra edges create a dependence cycle");
  return en;
}

__extension__ using U128 = unsigned __int128;

/// Exact schedule counting by variable elimination over the constraints
/// makeEnumerator flattened.  Every real operation is a variable with
/// domain [window lo, alap]; every kept precedence (in-edge or extra edge)
/// is a 0/1 pair factor t_after >= t_before + gap.  Variables are summed
/// out in min-degree order (ties: lowest node id); each step tabulates the
/// sum over one variable for every assignment of its current neighbours,
/// so a step costs Π D over the scope and the variable: O(n·D^(w+1)) in
/// total for elimination width w.
///
/// The order and every step's scope depend only on the constraint graph,
/// so makePlan() fixes them, and the cells each step costs, before any
/// table exists.  `max_steps` bounds the planned cells: a count whose plan
/// needs more evaluates no table.  `max_table_cells` bounds memory: a step
/// whose table would be larger conditions on one variable of its scope
/// instead.  It runs the rest of the plan once per value of that variable,
/// with its window narrowed to the value, and adds the results; each
/// run's tables are slices of the unconditioned ones, so the sum is the
/// same count.  Counts are checked 128-bit values narrowed to 64 bits at
/// the end; any overflow reports exact = false instead of wrapping.
struct EliminationCounter {
  struct Pair {
    std::uint32_t before = 0;  // variable index
    std::uint32_t after = 0;
    std::int64_t gap = 0;  // t_after >= t_before + gap
  };
  /// One planned elimination: sum `x` out of the pair factors `pairs` and
  /// the tables of the earlier steps `inputs`, leaving a table over
  /// `scope` (a scalar when the scope is empty).  A step without factors
  /// only multiplies the count by x's window size.
  struct Step {
    std::uint32_t x = 0;
    std::vector<std::uint32_t> scope;   // ascending variable indices
    std::vector<std::uint32_t> pairs;   // pair ids
    std::vector<std::uint32_t> inputs;  // producing step indices
    std::uint64_t cells = 0;            // planned cells through this step
  };
  /// The windows and live tables of one run of the plan.  A conditioned
  /// run narrows the window of `fixed` to a single value and owns its
  /// slices of the live tables over that variable, and the tables that
  /// depend on it; the tables it only reads stay owned by the run that
  /// made them.  A table that does not depend on `fixed` is the same in
  /// every run of the condition, so the first run leaves it in `shared`
  /// for the others.  Tables are row-major, last scope variable fastest.
  struct Frame {
    std::vector<std::int64_t> lo;
    std::vector<std::uint64_t> size;
    std::vector<const std::vector<U128>*> table;  // live tables, by step
    std::vector<std::vector<U128>> owned;         // by step
    std::vector<std::vector<U128>>* shared = nullptr;  // by step
    std::uint32_t fixed = 0;
  };
  enum class Outcome { kCounted, kZero, kOverflow };

  explicit EliminationCounter(const Enumerator& enumerator)
      : en(enumerator),
        max_table_cells(
            std::max<std::uint64_t>(enumerator.options->max_table_cells, 1)) {}

  const Enumerator& en;
  const std::uint64_t max_table_cells;
  std::vector<Pair> pairs;
  std::vector<Step> plan;
  /// False when the plan stops short of eliminating every variable: its
  /// next step would cross max_steps or overflow its cell count.
  bool complete = true;
  std::size_t widest_scope = 0;
  std::size_t reached = 0;      // steps any run got to
  std::uint64_t conditioned = 0;  // conditioned runs

  CountResult run() {
    const auto n = static_cast<std::uint32_t>(en.order.size());
    std::vector<std::uint32_t> var_of(en.g->nodeCount(), 0);
    Frame top;
    top.lo.resize(n);
    top.size.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t v = en.order[i].value();
      var_of[v] = i;
      if (en.window_lo[v] > en.alap[v]) {
        return {0, true, 0};  // an empty window admits no schedule
      }
      top.lo[i] = en.window_lo[v];
      top.size[i] = en.alap[v] - en.window_lo[v] + 1;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t v = en.order[i].value();
      for (std::uint32_t k = en.pred_off[v]; k < en.pred_off[v + 1]; ++k) {
        pairs.push_back({var_of[en.pred_src[k]], i, en.pred_gap[k]});
      }
      for (const NodeId u : en.extra_before[v]) {
        pairs.push_back({var_of[u.value()], i, 1});
      }
    }
    makePlan(top.size);
    if (!complete) {
      return {0, false, 0};
    }
    top.table.assign(plan.size(), nullptr);
    top.owned.resize(plan.size());
    U128 total = 1;
    const Outcome outcome = execute(0, top, total);
    const std::uint64_t cells = reached == 0 ? 0 : plan[reached - 1].cells;
    if (outcome == Outcome::kZero) {
      return {0, true, cells};  // no assignment completes a schedule
    }
    if (outcome == Outcome::kOverflow ||
        total > std::numeric_limits<std::uint64_t>::max()) {
      return {0, false, cells};
    }
    return {static_cast<std::uint64_t>(total), true, cells};
  }

  /// Fixes the elimination order and each step's factors, scope and
  /// planned cells from the variables' window sizes.
  void makePlan(const std::vector<std::uint64_t>& size) {
    const std::size_t n = size.size();
    std::vector<std::vector<std::uint32_t>> pairs_of(n);   // pair ids per var
    std::vector<std::vector<std::uint32_t>> tables_of(n);  // step ids per var
    std::vector<std::set<std::uint32_t>> adj(n);           // interaction graph
    for (std::uint32_t id = 0; id < pairs.size(); ++id) {
      const Pair& p = pairs[id];
      pairs_of[p.before].push_back(id);
      pairs_of[p.after].push_back(id);
      adj[p.before].insert(p.after);
      adj[p.after].insert(p.before);
    }
    std::vector<bool> pair_used(pairs.size(), false);
    std::vector<bool> table_used(n, false);
    std::vector<bool> eliminated(n, false);
    std::uint64_t cells = 0;
    for (std::size_t step = 0; step < n; ++step) {
      std::uint32_t x = 0;
      bool picked = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!eliminated[i] &&
            (!picked || adj[i].size() < adj[x].size() ||
             (adj[i].size() == adj[x].size() && en.order[i] < en.order[x]))) {
          x = i;
          picked = true;
        }
      }
      eliminated[x] = true;
      Step st;
      st.x = x;
      for (const std::uint32_t id : pairs_of[x]) {
        if (!pair_used[id]) {
          pair_used[id] = true;
          st.pairs.push_back(id);
        }
      }
      for (const std::uint32_t id : tables_of[x]) {
        if (!table_used[id]) {
          table_used[id] = true;
          st.inputs.push_back(id);
        }
      }
      if (!st.pairs.empty() || !st.inputs.empty()) {
        st.scope.assign(adj[x].begin(), adj[x].end());
        std::uint64_t step_cells = size[x];
        for (const std::uint32_t s : st.scope) {
          if (__builtin_mul_overflow(step_cells, size[s], &step_cells)) {
            complete = false;
            return;
          }
        }
        if (step_cells > en.options->max_steps - cells) {
          complete = false;
          return;
        }
        cells += step_cells;
        widest_scope = std::max(widest_scope, st.scope.size());
        for (const std::uint32_t s : st.scope) {
          adj[s].erase(x);
          adj[s].insert(st.scope.begin(), st.scope.end());
          adj[s].erase(s);
          tables_of[s].push_back(static_cast<std::uint32_t>(plan.size()));
        }
      }
      st.cells = cells;
      plan.push_back(std::move(st));
    }
  }

  /// Runs plan steps [from, plan.size()) in `f`, multiplying `total` by
  /// the factors they leave.
  Outcome execute(std::size_t from, Frame& f, U128& total) {
    for (std::size_t i = from; i < plan.size(); ++i) {
      const Step& st = plan[i];
      reached = std::max(reached, i + 1);
      if (st.pairs.empty() && st.inputs.empty()) {
        // Unconstrained: a factor of its window size, no table.
        if (__builtin_mul_overflow(total, f.size[st.x], &total)) {
          return Outcome::kOverflow;
        }
        continue;
      }
      std::vector<U128>& out =
          dependsOnFixed(st, f) ? f.owned[i] : (*f.shared)[i];
      if (out.empty()) {
        std::uint64_t table_cells = 1;  // at most the planned cells
        for (const std::uint32_t s : st.scope) {
          table_cells *= f.size[s];
        }
        if (table_cells > max_table_cells) {
          return condition(i, f, total);
        }
        out.assign(table_cells, 0);
        if (!eliminate(st, f, out)) {
          return Outcome::kOverflow;
        }
        if (std::all_of(out.begin(), out.end(),
                        [](U128 c) { return c == 0; })) {
          std::vector<U128>().swap(out);
          return Outcome::kZero;
        }
      }
      for (const std::uint32_t p : st.inputs) {
        f.table[p] = nullptr;
        std::vector<U128>().swap(f.owned[p]);
      }
      if (st.scope.empty()) {
        if (__builtin_mul_overflow(total, out[0], &total)) {
          return Outcome::kOverflow;
        }
        continue;
      }
      f.table[i] = &out;
    }
    return Outcome::kCounted;
  }

  /// Whether step `st` may differ between the runs of f's condition: it
  /// sums out or keeps the fixed variable, or reads a table f owns.
  static bool dependsOnFixed(const Step& st, const Frame& f) {
    return f.shared == nullptr || st.x == f.fixed ||
           std::binary_search(st.scope.begin(), st.scope.end(), f.fixed) ||
           std::any_of(st.inputs.begin(), st.inputs.end(),
                       [&](std::uint32_t p) { return !f.owned[p].empty(); });
  }

  /// Runs plan steps [i, plan.size()) once per value of the widest
  /// variable in step i's scope (ties: the lowest index), that variable
  /// fixed to the value, and multiplies `total` by the sum of the runs.
  /// The variable has two or more values, since the table has more than
  /// max_table_cells >= 1 cells.
  Outcome condition(std::size_t i, const Frame& f, U128& total) {
    std::uint32_t v = plan[i].scope.front();
    for (const std::uint32_t s : plan[i].scope) {
      v = f.size[s] > f.size[v] ? s : v;
    }
    std::vector<std::vector<U128>> shared(plan.size());
    U128 sum = 0;
    bool counted = false;
    for (std::uint64_t t = 0; t < f.size[v]; ++t) {
      ++conditioned;
      Frame run{f.lo, f.size, f.table,
                std::vector<std::vector<U128>>(plan.size()), &shared, v};
      run.lo[v] += static_cast<std::int64_t>(t);
      run.size[v] = 1;
      for (std::size_t p = 0; p < i; ++p) {
        const std::vector<std::uint32_t>& over = plan[p].scope;
        if (f.table[p] != nullptr &&
            std::binary_search(over.begin(), over.end(), v)) {
          run.owned[p] = slice(*f.table[p], over, f.size, v, t);
          run.table[p] = &run.owned[p];
        }
      }
      U128 part = 1;
      const Outcome o = execute(i, run, part);
      if (o == Outcome::kOverflow) {
        return o;
      }
      if (o == Outcome::kCounted) {
        counted = true;
        if (__builtin_add_overflow(sum, part, &sum)) {
          return Outcome::kOverflow;
        }
      }
    }
    if (!counted) {
      return Outcome::kZero;
    }
    return __builtin_mul_overflow(total, sum, &total) ? Outcome::kOverflow
                                                      : Outcome::kCounted;
  }

  /// The cells of `data` (a table over `scope`, extents `size`) at offset
  /// `t` of its variable `v`.
  static std::vector<U128> slice(const std::vector<U128>& data,
                                 const std::vector<std::uint32_t>& scope,
                                 const std::vector<std::uint64_t>& size,
                                 std::uint32_t v, std::uint64_t t) {
    std::uint64_t inner = 1;
    for (auto s = scope.rbegin(); *s != v; ++s) {
      inner *= size[*s];
    }
    const std::uint64_t block = size[v] * inner;
    std::vector<U128> out;
    out.reserve(data.size() / size[v]);
    for (std::uint64_t at = t * inner; at < data.size(); at += block) {
      const auto first = data.begin() + static_cast<std::ptrdiff_t>(at);
      out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(inner));
    }
    return out;
  }

  /// Fills out[a] = Σ_{t_x} Π factors(a, t_x) for every assignment a of
  /// st.scope under f's windows; false on 128-bit overflow.
  bool eliminate(const Step& st, const Frame& f, std::vector<U128>& out) const {
    const std::uint32_t x = st.x;
    const std::vector<std::uint32_t>& scope = st.scope;
    auto position = [&](std::uint32_t var) {
      return static_cast<std::size_t>(
          std::lower_bound(scope.begin(), scope.end(), var) - scope.begin());
    };
    // A pair factor bounds t_x by the other end's start.
    struct Bound {
      std::size_t pos;
      std::int64_t gap;
      bool upper;  // t_x <= t_other - gap, else t_x >= t_other + gap
    };
    std::vector<Bound> bounds;
    for (const std::uint32_t id : st.pairs) {
      const Pair& p = pairs[id];
      const bool upper = p.before == x;
      bounds.push_back({position(upper ? p.after : p.before), p.gap, upper});
    }
    // A table factor is read at Σ offset·stride over its scope.
    struct Use {
      const std::vector<U128>* data;
      std::vector<std::uint64_t> stride_at;  // per scope position
      std::uint64_t stride_x = 0;
    };
    std::vector<Use> uses;
    for (const std::uint32_t id : st.inputs) {
      const std::vector<std::uint32_t>& over = plan[id].scope;
      Use use{f.table[id], std::vector<std::uint64_t>(scope.size(), 0), 0};
      std::uint64_t stride = 1;
      for (std::size_t j = over.size(); j-- > 0;) {
        if (over[j] == x) {
          use.stride_x = stride;
        } else {
          use.stride_at[position(over[j])] = stride;
        }
        stride *= f.size[over[j]];
      }
      uses.push_back(std::move(use));
    }

    std::vector<std::uint64_t> offset(scope.size(), 0);
    std::vector<std::uint64_t> base(uses.size(), 0);
    for (U128& cell : out) {
      std::int64_t t_lo = f.lo[x];
      std::int64_t t_hi = f.lo[x] + static_cast<std::int64_t>(f.size[x]) - 1;
      for (const Bound& b : bounds) {
        const std::int64_t t_other =
            f.lo[scope[b.pos]] + static_cast<std::int64_t>(offset[b.pos]);
        if (b.upper) {
          t_hi = std::min(t_hi, t_other - b.gap);
        } else {
          t_lo = std::max(t_lo, t_other + b.gap);
        }
      }
      if (t_lo <= t_hi && uses.empty()) {
        cell = static_cast<U128>(t_hi - t_lo + 1);
      } else if (t_lo <= t_hi) {
        for (std::size_t u = 0; u < uses.size(); ++u) {
          base[u] = 0;
          for (std::size_t j = 0; j < scope.size(); ++j) {
            base[u] += offset[j] * uses[u].stride_at[j];
          }
        }
        for (std::int64_t t = t_lo; t <= t_hi; ++t) {
          const auto tx = static_cast<std::uint64_t>(t - f.lo[x]);
          U128 product = 1;
          for (std::size_t u = 0; u < uses.size() && product != 0; ++u) {
            const U128 factor =
                (*uses[u].data)[base[u] + tx * uses[u].stride_x];
            if (__builtin_mul_overflow(product, factor, &product)) {
              return false;
            }
          }
          if (__builtin_add_overflow(cell, product, &cell)) {
            return false;
          }
        }
      }
      for (std::size_t j = scope.size(); j-- > 0;) {
        if (++offset[j] < f.size[scope[j]]) {
          break;
        }
        offset[j] = 0;
      }
    }
    return true;
  }
};

}  // namespace

CountResult countSchedules(const cdfg::Cdfg& g,
                           const EnumerationOptions& options) {
  LOCWM_OBS_SPAN("sched.enum.count");
  const Enumerator en = makeEnumerator(g, options);
  EliminationCounter counter(en);
  const CountResult r = counter.run();
  LOCWM_OBS_COUNT("sched.enum.cells", r.steps);
  LOCWM_OBS_COUNT("sched.enum.schedules", r.count);
  LOCWM_OBS_COUNT("sched.enum.budget_hits", r.exact ? 0 : 1);
  LOCWM_OBS_GAUGE_MAX("sched.enum.widest_scope", counter.widest_scope);
  LOCWM_OBS_COUNT("sched.enum.conditioned", counter.conditioned);
  return r;
}

void enumerateSchedules(const cdfg::Cdfg& g, const EnumerationOptions& options,
                        const std::function<bool(const Schedule&)>& visit) {
  LOCWM_OBS_SPAN("sched.enum.visit");
  Enumerator en = makeEnumerator(g, options);
  en.visit = &visit;
  en.run(0);
  LOCWM_OBS_COUNT("sched.enum.states", en.steps);
  LOCWM_OBS_COUNT("sched.enum.schedules", en.count);
}

PsiPair countPsi(const cdfg::Cdfg& g, NodeId src, NodeId dst,
                 const EnumerationOptions& options) {
  PsiPair psi;
  psi.without_edge = countSchedules(g, options);
  EnumerationOptions with = options;
  with.extra_edges.push_back({src, dst});
  psi.with_edge = countSchedules(g, with);
  return psi;
}

}  // namespace locwm::sched
