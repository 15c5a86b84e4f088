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
/// total for elimination width w.  `max_steps` bounds the cells evaluated;
/// a step that would cross it stops the count before its table is
/// allocated.  Counts are checked 128-bit values narrowed to 64 bits at
/// the end; any overflow reports exact = false instead of wrapping.
struct EliminationCounter {
  struct Pair {
    std::uint32_t before = 0;  // variable index
    std::uint32_t after = 0;
    std::int64_t gap = 0;  // t_after >= t_before + gap
  };
  struct Table {
    std::vector<std::uint32_t> scope;  // ascending variable indices
    std::vector<U128> data;            // row-major, last scope var fastest
  };

  explicit EliminationCounter(const Enumerator& enumerator) : en(enumerator) {}

  const Enumerator& en;
  std::vector<std::int64_t> lo;
  std::vector<std::uint64_t> size;
  std::vector<Pair> pairs;
  std::vector<Table> tables;
  std::vector<std::vector<std::uint32_t>> pairs_of;   // pair ids per var
  std::vector<std::vector<std::uint32_t>> tables_of;  // table ids per var
  std::vector<std::set<std::uint32_t>> adj;           // interaction graph
  std::uint64_t cells = 0;
  std::size_t widest_scope = 0;

  [[nodiscard]] CountResult inexact() const { return {0, false, cells}; }

  CountResult run() {
    const auto n = static_cast<std::uint32_t>(en.order.size());
    std::vector<std::uint32_t> var_of(en.g->nodeCount(), 0);
    lo.resize(n);
    size.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t v = en.order[i].value();
      var_of[v] = i;
      if (en.window_lo[v] > en.alap[v]) {
        return {0, true, 0};  // an empty window admits no schedule
      }
      lo[i] = en.window_lo[v];
      size[i] = en.alap[v] - en.window_lo[v] + 1;
    }
    pairs_of.resize(n);
    tables_of.resize(n);
    adj.resize(n);
    auto constrain = [&](std::uint32_t before, std::uint32_t after,
                         std::int64_t gap) {
      const auto id = static_cast<std::uint32_t>(pairs.size());
      pairs.push_back({before, after, gap});
      pairs_of[before].push_back(id);
      pairs_of[after].push_back(id);
      adj[before].insert(after);
      adj[after].insert(before);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t v = en.order[i].value();
      for (std::uint32_t k = en.pred_off[v]; k < en.pred_off[v + 1]; ++k) {
        constrain(var_of[en.pred_src[k]], i, en.pred_gap[k]);
      }
      for (const NodeId u : en.extra_before[v]) {
        constrain(var_of[u.value()], i, 1);
      }
    }

    std::vector<bool> pair_used(pairs.size(), false);
    std::vector<bool> table_used;
    std::vector<bool> eliminated(n, false);
    U128 total = 1;
    for (std::uint32_t step = 0; step < n; ++step) {
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
      std::vector<std::uint32_t> live_pairs;
      for (const std::uint32_t id : pairs_of[x]) {
        if (!pair_used[id]) {
          pair_used[id] = true;
          live_pairs.push_back(id);
        }
      }
      std::vector<std::uint32_t> live_tables;
      for (const std::uint32_t id : tables_of[x]) {
        if (!table_used[id]) {
          table_used[id] = true;
          live_tables.push_back(id);
        }
      }
      if (live_pairs.empty() && live_tables.empty()) {
        if (__builtin_mul_overflow(total, size[x], &total)) {
          return inexact();
        }
        continue;  // unconstrained: a factor of its window size, no table
      }
      const std::vector<std::uint32_t> scope(adj[x].begin(), adj[x].end());
      std::uint64_t table_cells = 1;
      for (const std::uint32_t s : scope) {
        if (__builtin_mul_overflow(table_cells, size[s], &table_cells)) {
          return inexact();
        }
      }
      std::uint64_t step_cells = 0;
      if (__builtin_mul_overflow(table_cells, size[x], &step_cells) ||
          step_cells > en.options->max_steps - cells) {
        return inexact();
      }
      cells += step_cells;
      widest_scope = std::max(widest_scope, scope.size());

      Table out{scope, std::vector<U128>(table_cells, 0)};
      if (!eliminate(x, live_pairs, live_tables, out)) {
        return inexact();
      }
      // No assignment of the remaining variables completes a schedule.
      if (std::all_of(out.data.begin(), out.data.end(),
                      [](U128 c) { return c == 0; })) {
        return {0, true, cells};
      }
      for (const std::uint32_t s : scope) {
        adj[s].erase(x);
        adj[s].insert(scope.begin(), scope.end());
        adj[s].erase(s);
      }
      if (scope.empty()) {
        if (__builtin_mul_overflow(total, out.data[0], &total)) {
          return inexact();
        }
        continue;
      }
      const auto id = static_cast<std::uint32_t>(tables.size());
      for (const std::uint32_t s : scope) {
        tables_of[s].push_back(id);
      }
      tables.push_back(std::move(out));
      table_used.push_back(false);
    }
    if (total > std::numeric_limits<std::uint64_t>::max()) {
      return inexact();
    }
    return {static_cast<std::uint64_t>(total), true, cells};
  }

  /// Fills out.data[a] = Σ_{t_x} Π factors(a, t_x) for every assignment a
  /// of out.scope; false on 128-bit overflow.
  bool eliminate(std::uint32_t x, const std::vector<std::uint32_t>& live_pairs,
                 const std::vector<std::uint32_t>& live_tables,
                 Table& out) const {
    const std::vector<std::uint32_t>& scope = out.scope;
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
    for (const std::uint32_t id : live_pairs) {
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
    for (const std::uint32_t id : live_tables) {
      const Table& t = tables[id];
      Use use{&t.data, std::vector<std::uint64_t>(scope.size(), 0), 0};
      std::uint64_t stride = 1;
      for (std::size_t j = t.scope.size(); j-- > 0;) {
        if (t.scope[j] == x) {
          use.stride_x = stride;
        } else {
          use.stride_at[position(t.scope[j])] = stride;
        }
        stride *= size[t.scope[j]];
      }
      uses.push_back(std::move(use));
    }

    std::vector<std::uint64_t> offset(scope.size(), 0);
    std::vector<std::uint64_t> base(uses.size(), 0);
    for (U128& cell : out.data) {
      std::int64_t t_lo = lo[x];
      std::int64_t t_hi = lo[x] + static_cast<std::int64_t>(size[x]) - 1;
      for (const Bound& b : bounds) {
        const std::int64_t t_other =
            lo[scope[b.pos]] + static_cast<std::int64_t>(offset[b.pos]);
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
          const auto tx = static_cast<std::uint64_t>(t - lo[x]);
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
        if (++offset[j] < size[scope[j]]) {
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
