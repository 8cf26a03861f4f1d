#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/math_kernels.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace fpsched {

namespace {

// Telemetry only: relaxed counters cached once per process (see
// obs/metrics.hpp for the never-perturbs-determinism contract), each added
// once per call from locals. `runs` counts makespans produced (one per
// model of a call), `walks` the calls that walked the lost-work DFS,
// `lanes` the distinct lambdas swept; runs over walks is the sharing
// factor of the multi-model calls. `records` counts the (k, i) records the
// walks staged and `dfs_records` those whose DFS ran (the rest had no
// predecessor before k); `factor_lookups` counts the L > 0 records seen
// by live lanes and `factor_misses` those computed rather than read from
// the lane's memo.
struct EvalMetrics {
  obs::Counter& runs;
  obs::Counter& walks;
  obs::Counter& lanes;
  obs::Counter& sweeps;
  obs::Counter& records;
  obs::Counter& dfs_records;
  obs::Counter& factor_lookups;
  obs::Counter& factor_misses;
  obs::Counter& ns;
};

EvalMetrics& eval_metrics() {
  static EvalMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return new EvalMetrics{
        reg.counter("fpsched_eval_runs_total",
                    "Theorem 3 expected makespans produced (one per schedule and failure model)"),
        reg.counter("fpsched_eval_walks_total",
                    "evaluator calls that walked the lost-work DFS (shared by their models)"),
        reg.counter("fpsched_eval_lanes_total",
                    "distinct failure rates swept by the evaluator (one set of sweeps each)"),
        reg.counter("fpsched_eval_kernel_sweeps_total",
                    "batched exp/expm1 kernel sweeps issued by the evaluator"),
        reg.counter("fpsched_eval_records_total",
                    "(k, i) records staged by the lost-work walks (once per walk, not per lane)"),
        reg.counter("fpsched_eval_dfs_records_total",
                    "staged records whose lost-work DFS ran (the rest had no predecessor before k)"),
        reg.counter("fpsched_eval_factor_lookups_total",
                    "records with lost work seen by live lanes (each a factor memo lookup)"),
        reg.counter("fpsched_eval_factor_misses_total",
                    "factor memo misses: lost-work records whose factors were computed"),
        reg.counter("fpsched_eval_ns_total", "nanoseconds spent inside evaluator calls")};
  }();
  return *metrics;
}

constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::string to_string(EvalMath math) { return math == EvalMath::exact ? "exact" : "fast"; }

EvalMath parse_eval_math(const std::string& text) {
  if (text == "exact") return EvalMath::exact;
  if (text == "fast") return EvalMath::fast;
  throw InvalidArgument("eval-math must be 'exact' or 'fast', got '" + text + "'");
}

void EvaluatorWorkspace::resize(std::size_t n, std::size_t edges) {
  work.resize(n);
  ckpt.resize(n);
  recovery.resize(n);
  flag.resize(n);
  pred_offsets.assign(n + 1, 0);
  pred_list.resize(edges);
  min_pred.resize(n);
  position.resize(n);
  self_loss.assign(n, 0.0);
}

ScheduleEvaluator::ScheduleEvaluator(const TaskGraph& graph, FailureModel model)
    : graph_(&graph), model_(model) {}

Evaluation ScheduleEvaluator::evaluate(const Schedule& schedule) const {
  EvaluatorWorkspace ws;
  return evaluate(schedule, ws);
}

Evaluation ScheduleEvaluator::evaluate(const Schedule& schedule, EvaluatorWorkspace& ws,
                                       EvalMath math) const {
  Evaluation result;
  evaluate(schedule, {&model_, 1}, ws, {&result, 1}, math);
  return result;
}

void ScheduleEvaluator::evaluate(const Schedule& schedule, std::span<const FailureModel> models,
                                 EvaluatorWorkspace& ws, std::span<Evaluation> out,
                                 EvalMath math) const {
  ensure(out.size() == models.size(), "evaluate needs one output slot per model");
  validate_schedule(*graph_, schedule);
  std::vector<double> totals(models.size());
  if (math == EvalMath::exact) {
    run<EvalMath::exact>(schedule, models, ws, totals, out);
  } else {
    run<EvalMath::fast>(schedule, models, ws, totals, out);
  }
  double fault_free = 0.0;
  for (VertexId v = 0; v < graph_->task_count(); ++v) {
    fault_free += graph_->weight(v);
    if (schedule.is_checkpointed(v)) fault_free += graph_->ckpt_cost(v);
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    Evaluation& result = out[m];
    result.expected_makespan = totals[m];
    result.total_weight = graph_->total_weight();
    result.checkpoint_count = schedule.checkpoint_count();
    result.fault_free_time = fault_free;
    result.ratio =
        result.total_weight > 0.0 ? result.expected_makespan / result.total_weight : 1.0;
  }
}

double ScheduleEvaluator::expected_makespan(const Schedule& schedule, EvaluatorWorkspace& ws,
                                            bool validate, EvalMath math) const {
  double total = 0.0;
  expected_makespans(schedule, {&model_, 1}, ws, {&total, 1}, validate, math);
  return total;
}

void ScheduleEvaluator::expected_makespans(const Schedule& schedule,
                                           std::span<const FailureModel> models,
                                           EvaluatorWorkspace& ws, std::span<double> out,
                                           bool validate, EvalMath math) const {
  ensure(out.size() == models.size(), "expected_makespans needs one output slot per model");
  if (validate) validate_schedule(*graph_, schedule);
  if (math == EvalMath::exact) {
    run<EvalMath::exact>(schedule, models, ws, out, {});
  } else {
    run<EvalMath::fast>(schedule, models, ws, out, {});
  }
}

template <EvalMath kMath>
void ScheduleEvaluator::run(const Schedule& schedule, std::span<const FailureModel> models,
                            EvaluatorWorkspace& ws, std::span<double> totals,
                            std::span<Evaluation> full) const {
  EvalMetrics& metrics = eval_metrics();
  const obs::ScopedTimer timer(nullptr, &metrics.ns);
  const std::size_t n = graph_->task_count();
  for (Evaluation& result : full) result.per_task_expected.assign(n, 0.0);
  if (n == 0) {
    std::fill(totals.begin(), totals.end(), 0.0);
    return;
  }
  const Dag& dag = graph_->dag();
  ws.resize(n, dag.edge_count());

  // --- Reindex everything into position space. -------------------------
  for (std::size_t i = 0; i < n; ++i) ws.position[schedule.order[i]] = static_cast<std::uint32_t>(i);
  // Gather straight from the SoA task arrays into position space.
  const std::span<const double> weights = graph_->weights_view();
  const std::span<const double> ckpt_costs = graph_->ckpt_costs_view();
  const std::span<const double> recovery_costs = graph_->recovery_costs_view();
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = schedule.order[i];
    ws.work[i] = weights[v];
    ws.flag[i] = schedule.checkpointed[v];
    ws.ckpt[i] = ws.flag[i] ? ckpt_costs[v] : 0.0;
    ws.recovery[i] = recovery_costs[v];
  }
  // Predecessor CSR in position space, and each task's earliest
  // predecessor position (n for a task with none).
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = schedule.order[i];
    ws.pred_offsets[i + 1] = static_cast<std::uint32_t>(dag.predecessors(v).size());
  }
  for (std::size_t i = 0; i < n; ++i) ws.pred_offsets[i + 1] += ws.pred_offsets[i];
  {
    std::vector<std::uint32_t> fill(ws.pred_offsets.begin(), ws.pred_offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const VertexId v = schedule.order[i];
      auto earliest = static_cast<std::uint32_t>(n);
      for (const VertexId p : dag.predecessors(v)) {
        ws.pred_list[fill[i]++] = ws.position[p];
        earliest = std::min(earliest, ws.position[p]);
      }
      ws.min_pred[i] = earliest;
    }
  }

  // --- Lanes: one per distinct lambda > 0, in first-appearance order. ---
  // lambda == 0 models take the closed form in the combine below; a call
  // with no lane walks nothing.
  std::size_t lane_count = 0;
  ws.lane_of.resize(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) {
    const double lambda = models[m].lambda();
    ws.lane_of[m] = kNoLane;
    if (lambda == 0.0) continue;
    std::size_t lane = 0;
    while (lane < lane_count && ws.lanes[lane].lambda != lambda) ++lane;
    if (lane == lane_count) {
      if (ws.lanes.size() == lane_count) ws.lanes.emplace_back();
      ws.lanes[lane].lambda = lambda;
      ++lane_count;
    }
    ws.lane_of[m] = lane;
  }
  const std::span<EvaluatorWorkspace::Lane> lanes(ws.lanes.data(), lane_count);
  for (EvaluatorWorkspace::Lane& lane : lanes) {
    lane.accum.assign(n, 0.0);
    lane.sum_prob.assign(n, 0.0);
    lane.expm1_wc.resize(kMath == EvalMath::fast ? 2 * n : n);
    // The memo's factors depend on this call's w_i and delta_i c_i, so
    // every position starts as a miss.
    lane.memo_lost.assign(n, 0.0);
    lane.memo_a.resize(n);
    lane.memo_b.resize(n);
  }

  // Lost work L^i_k for the current pass position k: DFS from i over lost,
  // non-checkpointed predecessors. `recovered_at[j] == k` marks tasks that
  // already entered some T|k_l with l <= i (their output is back in
  // memory), which both deduplicates the DFS and implements the exclusion
  // rule of Definition 1. Callers skip it when min_pred[i] >= k: then no
  // predecessor ran before the failure, L^i_k = 0 and nothing is marked.
  EvaluatorWorkspace::PassScratch& pass = ws.pass;
  const auto lost_work = [&](std::size_t i, std::size_t pass_k) -> double {
    const auto k = static_cast<std::int32_t>(pass_k);
    std::vector<std::uint32_t>& stack = pass.dfs_stack;
    double lost = 0.0;
    stack.clear();
    stack.push_back(static_cast<std::uint32_t>(i));
    while (!stack.empty()) {
      const std::uint32_t node = stack.back();
      stack.pop_back();
      for (std::uint32_t e = ws.pred_offsets[node]; e < ws.pred_offsets[node + 1]; ++e) {
        const std::uint32_t j = ws.pred_list[e];
        if (static_cast<std::int32_t>(j) >= k) continue;  // executed after the failure
        if (pass.recovered_at[j] == k) continue;          // already recovered/re-executed
        pass.recovered_at[j] = k;
        if (ws.flag[j]) {
          lost += ws.recovery[j];  // reload the checkpoint; stop the walk here
        } else {
          lost += ws.work[j];  // re-execute; its own inputs are needed too
          stack.push_back(j);
        }
      }
    }
    return lost;
  };

  std::size_t staged_passes = 0;  // (lane, pass) pairs; each issues 1 (exact) or 0 sweeps
  std::size_t staged_records = 0;
  std::size_t dfs_records = 0;
  std::size_t factor_lookups = 0;
  std::size_t factor_misses = 0;
  if (!lanes.empty()) {
    pass.recovered_at.assign(n, -1);
    pass.dfs_stack.clear();
    pass.dfs_stack.reserve(n);
    pass.q.resize(n);
    pass.lost.resize(n);
    // Where the walk stages S (exact only: fast never reads it). A one-lane
    // call stages straight into the sweep scratch q, which its in-place
    // sweep then consumes; with several lanes the staged spans must
    // outlive each lane's sweep, so they go to a shared buffer that every
    // lane sweeps out of place into q.
    const bool shared = lanes.size() > 1;
    // The compacted record list takes at most n entries per pass; sizing
    // it once up front keeps its growth (and its heap placement) out of
    // the pass loop.
    pass.lost_rec.reserve(n);
    if (shared) pass.span.resize(n);
    double* const staged_span = shared ? pass.span.data() : pass.q.data();
    const double* const staged_lost = pass.lost.data();

    // --- Pass k = -1: no failure has happened yet. ---------------------
    // Zero-probability events are skipped everywhere below: their Eq.-(1)
    // term can overflow to +inf on failure-dominated segments and 0 * inf
    // would poison the sum with a NaN.
    //
    // expm1(lambda (w_i + delta_i c_i)) is memoized here because it is
    // the exact factor every later pass needs whenever L^i_k == 0 — with
    // no lost work, lambda * (0.0 + w_i + c_i) has the same bit pattern as
    // lambda * (w_i + c_i) and e^{-lambda * 0} == 1.0, so reusing the
    // memoized value is bit-identical while skipping both
    // transcendentals on the (dominant) zero-loss pairs of the O(n^2)
    // loop below.
    //
    // Like the per-record exp of every pass below, the pass's
    // transcendental arguments are staged into contiguous buffers and
    // handed to the batched sweeps (math_kernels.hpp) in one call each,
    // which is bit-identical to the element-wise port.
    if constexpr (kMath == EvalMath::exact) {
      double elapsed = 0.0;  // sum of w_j + delta_j c_j, j < i
      for (std::size_t i = 0; i < n; ++i) {
        staged_span[i] = elapsed;
        elapsed += ws.work[i] + ws.ckpt[i];
      }
    }
    for (EvaluatorWorkspace::Lane& lane : lanes) {
      const double lambda = lane.lambda;
      for (std::size_t i = 0; i < n; ++i) lane.expm1_wc[i] = lambda * (ws.work[i] + ws.ckpt[i]);
      vexpm1(lane.expm1_wc.data(), lane.expm1_wc.data(), n);
      if constexpr (kMath == EvalMath::fast) {
        // P(Z^i_{-1}) = prod_{j<i} e^{-lambda (w_j + delta_j c_j)}; the
        // factors are memoized for the later passes' recurrence too. Every
        // factor is <= 1, so once the product reaches 0 it stays there.
        double* const decay_wc = lane.decay_wc();
        for (std::size_t i = 0; i < n; ++i) decay_wc[i] = ws.work[i] + ws.ckpt[i];
        vexp_neg_mul(lambda, decay_wc, decay_wc, n);
        double p = 1.0;
        for (std::size_t i = 0; i < n && p > 0.0; ++i) {
          lane.accum[i] += p * lane.expm1_wc[i];
          lane.sum_prob[i] += p;
          p *= decay_wc[i];
        }
        continue;
      }
      vexp_neg_mul(lambda, staged_span, pass.q.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double p = pass.q[i];
        if (p > 0.0) {
          lane.accum[i] += p * lane.expm1_wc[i];
          lane.sum_prob[i] += p;
        }
      }
    }

    // --- Passes k = 0..n-1: last failure during X_k. --------------------
    for (std::size_t k = 0; k < n; ++k) {
      // L^k_k, needed by the combine whether or not any lane lives; its
      // DFS is the first of pass k, and its marks hold for the walk below.
      ws.self_loss[k] = ws.min_pred[k] < k ? lost_work(k, k) : 0.0;
      // P(Z^{k+1}_k) = 1 - sum over earlier failure positions (property
      // B). It is final before pass k starts, so a dead lane (probability
      // mass exhausted, or k == n-1 with no later tasks) skips the pass;
      // when every lane is dead the walk is skipped too: the skipped DFS
      // epoch marks are never read again.
      bool live = false;
      for (EvaluatorWorkspace::Lane& lane : lanes) {
        lane.base = k + 1 < n ? std::clamp(1.0 - lane.sum_prob[k + 1], 0.0, 1.0) : 0.0;
        live = live || lane.base > 0.0;
      }
      if (!live) continue;

      // Walk once: stage S^i_k and L^i_k of every record for all lanes.
      double span = 0.0;  // S^i_k = sum_{k<j<i} (L^j_k + w_j + delta_j c_j)
      std::size_t records = 0;
      pass.lost_rec.clear();
      for (std::size_t i = k + 1; i < n; ++i) {
        double lost = 0.0;
        if (ws.min_pred[i] < k) {
          lost = lost_work(i, k);
          ++dfs_records;
          if (lost != 0.0) pass.lost_rec.push_back(static_cast<std::uint32_t>(records));
        }
        pass.lost[records] = lost;
        if constexpr (kMath == EvalMath::exact) {
          staged_span[records] = span;
          span += lost + ws.work[i] + ws.ckpt[i];
        }
        ++records;
      }
      staged_records += records;

      for (EvaluatorWorkspace::Lane& lane : lanes) {
        const double base = lane.base;
        if (!(base > 0.0)) continue;
        factor_lookups += pass.lost_rec.size();
        ++staged_passes;
        if constexpr (kMath == EvalMath::fast) {
          factor_misses += recurrence_step(ws, lane, k + 1, records);
          continue;
        }

        // Per live lane, sweep q <- e^{-lambda S} for all records, and
        // compute the factors of the L > 0 records that miss the memo,
        // a <- e^{-lambda L} and b <- expm1(lambda (L + w_i + delta_i c_i)),
        // with the scalar port. The expressions and guards mirror the
        // historical element-wise code token for token, so the accumulate
        // consumes bit-identical factors.
        const double lambda = lane.lambda;
        vexp_neg_mul(lambda, staged_span, pass.q.data(), records);
        for (const std::uint32_t r : pass.lost_rec) {
          // A record with q == 0 has p == 0: its factors are never read.
          const std::size_t i = k + 1 + r;
          const double lost = staged_lost[r];
          if (pass.q[r] > 0.0 && lane.memo_lost[i] != lost) {
            // An overflowed expm1 makes the Eq.-(1) term +inf, as Algorithm 1
            // computes it; a = 1 keeps an underflowed p * a from turning it
            // into 0 * inf = NaN.
            const double b = expm1_port(lambda * (lost + ws.work[i] + ws.ckpt[i]));
            lane.memo_lost[i] = lost;
            lane.memo_a[i] = b == kInf ? 1.0 : exp_port(-lambda * lost);
            lane.memo_b[i] = b;
            ++factor_misses;
          }
        }

        // Accumulate the pass from its staged factors, i ascending.
        for (std::size_t r = 0; r < records; ++r) {
          const std::size_t i = k + 1 + r;
          const double p = pass.q[r] * base;
          if (p > 0.0) {
            lane.accum[i] += staged_lost[r] == 0.0 ? p * lane.expm1_wc[i]
                                                   : p * lane.memo_a[i] * lane.memo_b[i];
            lane.sum_prob[i] += p;
          }
        }
      }
    }
  }

  // --- Combine, per model: E[X_i] = e^{lambda L^i_i} (1/lambda + D)
  // accum[i] from its lane; lambda == 0 makes the makespan deterministic.
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::vector<double>* per_task = full.empty() ? nullptr : &full[m].per_task_expected;
    double total = 0.0;
    if (ws.lane_of[m] == kNoLane) {
      for (std::size_t i = 0; i < n; ++i) {
        const double xi = ws.work[i] + ws.ckpt[i];
        if (per_task) (*per_task)[i] = xi;
        total += xi;
      }
      totals[m] = total;
      continue;
    }
    const std::vector<double>& accum = ws.lanes[ws.lane_of[m]].accum;
    const double lambda = models[m].lambda();
    const double rate_factor = 1.0 / lambda + models[m].downtime();
    for (std::size_t i = 0; i < n; ++i) {
      // accum[i] == 0 happens only when every reachable event has zero
      // cost (or its probability underflowed); guard against inf * 0. The
      // self_loss == 0 branch elides e^{lambda * 0} == 1.0
      // bit-identically.
      double xi = 0.0;
      if (accum[i] != 0.0 && ws.self_loss[i] == 0.0) {
        xi = rate_factor * accum[i];
      } else if (accum[i] != 0.0) {
        xi = exp_port(lambda * ws.self_loss[i]) * rate_factor * accum[i];
      }
      if (per_task) (*per_task)[i] = xi;
      total += xi;
    }
    totals[m] = total;
  }
  metrics.runs.add(models.size());
  if (!lanes.empty()) metrics.walks.add(1);
  metrics.lanes.add(lane_count);
  // Pass -1 issues 2 sweeps per lane in either mode.
  metrics.sweeps.add(2 * lane_count + (kMath == EvalMath::exact ? staged_passes : 0));
  metrics.records.add(staged_records);
  metrics.dfs_records.add(dfs_records);
  metrics.factor_lookups.add(factor_lookups);
  metrics.factor_misses.add(factor_misses);
}

std::size_t ScheduleEvaluator::recurrence_step(EvaluatorWorkspace& ws,
                                               EvaluatorWorkspace::Lane& lane, std::size_t first,
                                               std::size_t records) {
  EvaluatorWorkspace::PassScratch& pass = ws.pass;
  const double lambda = lane.lambda;
  const double* const staged_lost = pass.lost.data();
  const double* const decay_wc = lane.decay_wc();
  // For each L > 0 record that misses the memo, memoize its step factor
  // e^{-lambda L} e^{-lambda (w_i + delta_i c_i)} and its Eq.-(1) factor
  // e^{-lambda L} expm1(lambda (L + w_i + delta_i c_i)).
  std::size_t misses = 0;
  for (const std::uint32_t r : pass.lost_rec) {
    const std::size_t i = first + r;
    const double lost = staged_lost[r];
    if (lane.memo_lost[i] != lost) {
      const double a = exp_port(-lambda * lost);
      const double b = expm1_port(lambda * (lost + ws.work[i] + ws.ckpt[i]));
      lane.memo_lost[i] = lost;
      lane.memo_a[i] = a * decay_wc[i];
      lane.memo_b[i] = b == kInf ? kInf : a * b;  // as exact: an overflowed expm1 is +inf
      ++misses;
    }
  }

  // P(Z^i_k) = q_i P(Z^{k+1}_k) with q_{k+1} = 1 (S^{k+1}_k = 0) and q
  // stepping by each record's factor. Every factor is <= 1, so once p
  // reaches 0 the rest of the pass contributes nothing; stopping there is
  // the zero-probability skip (it keeps 0 * inf out of the sums).
  double q = 1.0;
  for (std::size_t r = 0; r < records; ++r) {
    const std::size_t i = first + r;
    const double p = q * lane.base;
    if (!(p > 0.0)) break;
    const bool lost = staged_lost[r] != 0.0;
    lane.accum[i] += p * (lost ? lane.memo_b[i] : lane.expm1_wc[i]);
    lane.sum_prob[i] += p;
    q *= lost ? lane.memo_a[i] : decay_wc[i];
  }
  return misses;
}

}  // namespace fpsched
