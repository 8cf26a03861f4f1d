#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "core/math_kernels.hpp"
#include "obs/metrics.hpp"

namespace fpsched {

namespace {

// Telemetry only: relaxed counters cached once per process (see
// obs/metrics.hpp for the never-perturbs-determinism contract).
struct EvalMetrics {
  obs::Counter& runs;
  obs::Counter& sweeps;
};

EvalMetrics& eval_metrics() {
  static EvalMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return new EvalMetrics{
        reg.counter("fpsched_eval_runs_total", "Theorem 3 evaluator invocations"),
        reg.counter("fpsched_eval_kernel_sweeps_total",
                    "batched exp/expm1 kernel sweeps issued by the evaluator")};
  }();
  return *metrics;
}

}  // namespace

void EvaluatorWorkspace::resize(std::size_t n, std::size_t edges) {
  work.resize(n);
  ckpt.resize(n);
  recovery.resize(n);
  flag.resize(n);
  pred_offsets.assign(n + 1, 0);
  pred_list.resize(edges);
  position.resize(n);
  accum.assign(n, 0.0);
  sum_prob.assign(n, 0.0);
  expm1_wc.resize(n);
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
  validate_schedule(*graph_, schedule);
  Evaluation result;
  result.per_task_expected.clear();
  result.expected_makespan = run(schedule, ws, &result.per_task_expected, math);
  result.total_weight = graph_->total_weight();
  result.checkpoint_count = schedule.checkpoint_count();
  double fault_free = 0.0;
  for (VertexId v = 0; v < graph_->task_count(); ++v) {
    fault_free += graph_->weight(v);
    if (schedule.is_checkpointed(v)) fault_free += graph_->ckpt_cost(v);
  }
  result.fault_free_time = fault_free;
  result.ratio = result.total_weight > 0.0 ? result.expected_makespan / result.total_weight : 1.0;
  return result;
}

double ScheduleEvaluator::expected_makespan(const Schedule& schedule, EvaluatorWorkspace& ws,
                                            bool validate, EvalMath math) const {
  if (validate) validate_schedule(*graph_, schedule);
  return run(schedule, ws, nullptr, math);
}

double ScheduleEvaluator::run(const Schedule& schedule, EvaluatorWorkspace& ws,
                              std::vector<double>* per_task, EvalMath math) const {
  const std::size_t n = graph_->task_count();
  if (per_task) per_task->assign(n, 0.0);
  if (n == 0) return 0.0;
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
  // Predecessor CSR in position space.
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = schedule.order[i];
    ws.pred_offsets[i + 1] = static_cast<std::uint32_t>(dag.predecessors(v).size());
  }
  for (std::size_t i = 0; i < n; ++i) ws.pred_offsets[i + 1] += ws.pred_offsets[i];
  {
    std::vector<std::uint32_t> fill(ws.pred_offsets.begin(), ws.pred_offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const VertexId v = schedule.order[i];
      for (const VertexId p : dag.predecessors(v)) ws.pred_list[fill[i]++] = ws.position[p];
    }
  }

  const double lambda = model_.lambda();
  if (lambda == 0.0) {
    // No failures: the makespan is deterministic.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = ws.work[i] + ws.ckpt[i];
      if (per_task) (*per_task)[i] = xi;
      total += xi;
    }
    eval_metrics().runs.add(1);  // no kernel sweeps on the failure-free path
    return total;
  }
  const double rate_factor = 1.0 / lambda + model_.downtime();

  // Lost work L^i_k for the current pass position k: DFS from i over lost,
  // non-checkpointed predecessors. `recovered_at[j] == k` marks tasks that
  // already entered some T|k_l with l <= i (their output is back in
  // memory), which both deduplicates the DFS and implements the exclusion
  // rule of Definition 1.
  EvaluatorWorkspace::PassScratch& pass = ws.pass;
  pass.recovered_at.assign(n, -1);
  pass.dfs_stack.clear();
  pass.dfs_stack.reserve(n);
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

  // --- Pass k = -1: no failure has happened yet. -----------------------
  // Zero-probability events are skipped everywhere below: their Eq.-(1)
  // term can overflow to +inf on failure-dominated segments and 0 * inf
  // would poison the sum with a NaN.
  //
  // expm1(lambda (w_i + delta_i c_i)) is memoized here because it is the
  // exact factor every later pass needs whenever L^i_k == 0 — with no
  // lost work, lambda * (0.0 + w_i + c_i) has the same bit pattern as
  // lambda * (w_i + c_i) and e^{-lambda * 0} == 1.0, so reusing the
  // memoized value is bit-identical while skipping both transcendentals
  // on the (dominant) zero-loss pairs of the O(n^2) loop below.
  //
  // Like every pass below, the transcendental arguments are staged into
  // contiguous buffers and handed to the batched kernels (math_kernels.hpp)
  // in one sweep each; the exact backend makes this bit-identical to the
  // historical element-wise loop.
  pass.q.resize(n);
  pass.a.resize(n);
  pass.b.resize(n);
  {
    double elapsed = 0.0;  // sum of w_j + delta_j c_j, j < i
    for (std::size_t i = 0; i < n; ++i) {
      ws.expm1_wc[i] = lambda * (ws.work[i] + ws.ckpt[i]);
      pass.q[i] = elapsed;
      elapsed += ws.work[i] + ws.ckpt[i];
    }
    vexpm1(ws.expm1_wc.data(), ws.expm1_wc.data(), n, math);
    vexp_neg_mul(lambda, pass.q.data(), pass.q.data(), n, math);
    for (std::size_t i = 0; i < n; ++i) {
      const double p = pass.q[i];
      if (p > 0.0) {
        ws.accum[i] += p * ws.expm1_wc[i];
        ws.sum_prob[i] += p;
      }
    }
  }

  // --- Passes k = 0..n-1: last failure during X_k. ----------------------
  std::size_t staged_passes = 0;  // each staged pass issues 3 kernel sweeps
  for (std::size_t k = 0; k < n; ++k) {
    // P(Z^{k+1}_k) = 1 - sum over earlier failure positions (property B).
    // It is final before pass k starts, so a dead pass (probability mass
    // exhausted, or k == n-1 with no later tasks) skips staging entirely:
    // only L^k_k is still needed, and the skipped DFS epoch marks are
    // never read again.
    const double base = k + 1 < n ? std::clamp(1.0 - ws.sum_prob[k + 1], 0.0, 1.0) : 0.0;
    if (!(base > 0.0)) {
      ws.self_loss[k] = lost_work(k, k);
      continue;
    }

    // Stage: walk the lost-work DFS, stage every record's kernel
    // arguments — S^i_k in q, L^i_k in a — then batch the pass's
    // transcendentals as three sweeps: q <- e^{-lambda q} for all records,
    // and for the compacted L > 0 subset a <- e^{-lambda L},
    // b <- expm1(lambda (L + w_i + delta_i c_i)). The staged expressions
    // and guards mirror the historical element-wise code token for token,
    // so the combine consumes bit-identical factors under the exact
    // backend.
    double span = 0.0;  // S^i_k = sum_{k<j<i} (L^j_k + w_j + delta_j c_j)
    std::size_t records = 0;
    for (std::size_t i = k; i < n; ++i) {
      const double lost = lost_work(i, k);
      if (i == k) {
        ws.self_loss[k] = lost;  // L^k_k
        continue;
      }
      pass.q[records] = span;  // staged argument, swept in place below
      pass.a[records] = lost;  // staged L, rewritten by the compaction below
      ++records;
      span += lost + ws.work[i] + ws.ckpt[i];
    }
    vexp_neg_mul(lambda, pass.q.data(), pass.q.data(), records, math);
    pass.lost_idx.clear();
    pass.arg_a.clear();
    pass.arg_b.clear();
    for (std::size_t r = 0; r < records; ++r) {
      const double lost = pass.a[r];
      if (lost == 0.0) {
        pass.a[r] = -1.0;  // sentinel: combine reuses the memoized expm1_wc[i]
        pass.b[r] = 0.0;
      } else if (pass.q[r] > 0.0) {
        const std::size_t i = k + 1 + r;
        pass.lost_idx.push_back(static_cast<std::uint32_t>(r));
        pass.arg_a.push_back(lost);
        pass.arg_b.push_back(lambda * (lost + ws.work[i] + ws.ckpt[i]));
      } else {
        pass.a[r] = 0.0;  // q == 0 forces p == 0; never read
        pass.b[r] = 0.0;
      }
    }
    vexp_neg_mul(lambda, pass.arg_a.data(), pass.arg_a.data(), pass.arg_a.size(), math);
    vexpm1(pass.arg_b.data(), pass.arg_b.data(), pass.arg_b.size(), math);
    for (std::size_t j = 0; j < pass.lost_idx.size(); ++j) {
      pass.a[pass.lost_idx[j]] = pass.arg_a[j];
      pass.b[pass.lost_idx[j]] = pass.arg_b[j];
    }

    // Accumulate the pass from its staged factors, i ascending.
    for (std::size_t r = 0; r < records; ++r) {
      const std::size_t i = k + 1 + r;
      const double p = pass.q[r] * base;
      if (p > 0.0) {
        ws.accum[i] += pass.a[r] < 0.0 ? p * ws.expm1_wc[i] : p * pass.a[r] * pass.b[r];
        ws.sum_prob[i] += p;
      }
    }
    ++staged_passes;
  }

  // --- Combine: E[X_i] = e^{lambda L^i_i} (1/lambda + D) accum[i]. ------
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // accum[i] == 0 happens only when every reachable event has zero cost
    // (or its probability underflowed); guard against inf * 0. The
    // self_loss == 0 branch elides e^{lambda * 0} == 1.0 bit-identically.
    double xi = 0.0;
    if (ws.accum[i] != 0.0 && ws.self_loss[i] == 0.0) {
      xi = rate_factor * ws.accum[i];
    } else if (ws.accum[i] != 0.0) {
      // determinism-ok: serial O(n) combine tail, not a pass sweep (staging would cost more)
      xi = std::exp(lambda * ws.self_loss[i]) * rate_factor * ws.accum[i];
    }
    if (per_task) (*per_task)[i] = xi;
    total += xi;
  }
  EvalMetrics& metrics = eval_metrics();
  metrics.runs.add(1);
  metrics.sweeps.add(2 + 3 * staged_passes);  // pass -1 issues 2, each staged pass 3
  return total;
}

}  // namespace fpsched
