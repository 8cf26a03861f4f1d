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
// member and model of a call), `walks` the schedules walked (the members
// of calls with a lane), `lanes` the (member, distinct lambda) pairs
// swept; runs over walks is the sharing factor of the multi-model calls.
// `records` counts the (k, i) records the members staged and
// `dfs_records` those whose DFS ran (once per class walk; the rest had no
// predecessor before k); `factor_lookups` counts the L > 0 records seen
// by live lanes and `factor_misses` those computed rather than read from
// the lane's memo. `walk_ns` and `lane_ns` time the two phases of every
// kPhaseSample-th call of a thread only: two clock reads per pass would
// cost several percent at n = 200.
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
  obs::Counter& walk_ns;
  obs::Counter& lane_ns;
};

EvalMetrics& eval_metrics() {
  static EvalMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return new EvalMetrics{
        reg.counter("fpsched_eval_runs_total",
                    "Theorem 3 expected makespans produced (one per schedule and failure model)"),
        reg.counter("fpsched_eval_walks_total",
                    "schedules whose lost-work passes were walked (shared by their models)"),
        reg.counter("fpsched_eval_lanes_total",
                    "distinct failure rates swept per schedule (one set of sweeps each)"),
        reg.counter("fpsched_eval_kernel_sweeps_total",
                    "batched exp/expm1 kernel sweeps issued by the evaluator"),
        reg.counter("fpsched_eval_records_total",
                    "(k, i) records staged per schedule walked (once per schedule, not per lane)"),
        reg.counter("fpsched_eval_dfs_records_total",
                    "lost-work DFS runs, one per record and class of schedules agreeing before k"),
        reg.counter("fpsched_eval_factor_lookups_total",
                    "records with lost work seen by live lanes (each a factor memo lookup)"),
        reg.counter("fpsched_eval_factor_misses_total",
                    "factor memo misses: lost-work records whose factors were computed"),
        reg.counter("fpsched_eval_ns_total", "nanoseconds spent inside evaluator calls"),
        reg.counter("fpsched_eval_walk_ns_total",
                    "nanoseconds in the lost-work walks and span staging, sampled: every 64th "
                    "evaluator call of a thread"),
        reg.counter("fpsched_eval_lane_ns_total",
                    "nanoseconds in the per-rate sweeps and accumulates, sampled: every 64th "
                    "evaluator call of a thread")};
  }();
  return *metrics;
}

constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

// Phase timing: every kPhaseSample-th evaluator call of a thread.
constexpr std::uint64_t kPhaseSample = 64;
thread_local std::uint64_t calls_on_thread = 0;

// Block sizing: per-member lane state within kBlockStateBytes.
constexpr std::size_t kBlockStateBytes = 96 * 1024;
constexpr std::size_t kMaxBlock = 16;

}  // namespace

std::string to_string(EvalMath math) { return math == EvalMath::exact ? "exact" : "fast"; }

EvalMath parse_eval_math(const std::string& text) {
  if (text == "exact") return EvalMath::exact;
  if (text == "fast") return EvalMath::fast;
  throw InvalidArgument("eval-math must be 'exact' or 'fast', got '" + text + "'");
}

void EvaluatorWorkspace::resize(std::size_t n, std::size_t edges, std::size_t members) {
  work.resize(n);
  ckpt.resize(2 * n);
  recovery.resize(n);
  flags.resize(members * n);
  first_diff.resize(members * members);
  pred_offsets.assign(n + 1, 0);
  pred_list.resize(edges);
  min_pred.resize(n);
  position.resize(n);
}

bool EvaluatorWorkspace::Lane::memo_swap(std::size_t i, std::size_t n, double key) {
  std::swap(memo_lost[i], memo_lost[n + i]);
  std::swap(memo_a[i], memo_a[n + i]);
  std::swap(memo_b[i], memo_b[n + i]);
  return memo_lost[i] == key;
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
  const ScheduleBlock block{schedule.order, {&schedule.checkpointed, 1}};
  if (math == EvalMath::exact) {
    run<EvalMath::exact>(block, models, ws, totals, out);
  } else {
    run<EvalMath::fast>(block, models, ws, totals, out);
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
  expected_makespans(ScheduleBlock{schedule.order, {&schedule.checkpointed, 1}}, models, ws, out,
                     validate, math);
}

void ScheduleEvaluator::expected_makespans(const ScheduleBlock& block,
                                           std::span<const FailureModel> models,
                                           EvaluatorWorkspace& ws, std::span<double> out,
                                           bool validate, EvalMath math) const {
  ensure(out.size() == block.flags.size() * models.size(),
         "expected_makespans needs one output slot per schedule and model");
  if (validate) validate_block(*graph_, block);
  if (math == EvalMath::exact) {
    run<EvalMath::exact>(block, models, ws, out, {});
  } else {
    run<EvalMath::fast>(block, models, ws, out, {});
  }
}

std::size_t ScheduleEvaluator::block_size(std::size_t task_count,
                                          std::span<const FailureModel> models) {
  std::size_t lanes = 0;  // distinct lambda > 0, as run() assigns them
  for (std::size_t m = 0; m < models.size(); ++m) {
    bool seen = models[m].lambda() == 0.0;
    for (std::size_t j = 0; j < m && !seen; ++j) seen = models[j].lambda() == models[m].lambda();
    if (!seen) ++lanes;
  }
  const std::size_t member_bytes = 2 * task_count * lanes * sizeof(double);
  if (member_bytes == 0) return kMaxBlock;
  return std::clamp<std::size_t>(kBlockStateBytes / member_bytes, 1, kMaxBlock);
}

template <EvalMath kMath>
void ScheduleEvaluator::run(const ScheduleBlock& block, std::span<const FailureModel> models,
                            EvaluatorWorkspace& ws, std::span<double> totals,
                            std::span<Evaluation> full) const {
  EvalMetrics& metrics = eval_metrics();
  const obs::ScopedTimer timer(nullptr, &metrics.ns);
  const std::size_t n = graph_->task_count();
  const std::size_t members = block.flags.size();
  const std::size_t model_count = models.size();
  for (Evaluation& result : full) result.per_task_expected.assign(n, 0.0);
  std::fill(totals.begin(), totals.end(), 0.0);
  if (n == 0 || members == 0) return;

  // Phase time, on sampled calls only: each tick charges the time since
  // the previous one to a phase (null: to neither).
  const bool sampled = calls_on_thread++ % kPhaseSample == 0;
  std::uint64_t mark = sampled ? obs::monotonic_ns() : 0;
  std::uint64_t walk_ns = 0;
  std::uint64_t lane_ns = 0;
  const auto tick = [&](std::uint64_t* phase) {
    if (!sampled) return;
    const std::uint64_t now = obs::monotonic_ns();
    if (phase) *phase += now - mark;
    mark = now;
  };

  const Dag& dag = graph_->dag();
  ws.resize(n, dag.edge_count(), members);

  // --- Reindex everything into position space. -------------------------
  const std::span<const VertexId> order = block.order;
  for (std::size_t i = 0; i < n; ++i) ws.position[order[i]] = static_cast<std::uint32_t>(i);
  // Gather straight from the SoA task arrays into position space. A
  // checkpoint cost is staged for both flags, so that ckpt[delta_i n + i]
  // is delta_i c_i for every member.
  const std::span<const double> weights = graph_->weights_view();
  const std::span<const double> ckpt_costs = graph_->ckpt_costs_view();
  const std::span<const double> recovery_costs = graph_->recovery_costs_view();
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = order[i];
    ws.work[i] = weights[v];
    ws.ckpt[i] = 0.0;
    ws.ckpt[n + i] = ckpt_costs[v];
    ws.recovery[i] = recovery_costs[v];
  }
  for (std::size_t b = 0; b < members; ++b) {
    const std::vector<std::uint8_t>& checkpointed = block.flags[b];
    std::uint8_t* const flag = ws.flags.data() + b * n;
    for (std::size_t i = 0; i < n; ++i) flag[i] = checkpointed[order[i]] != 0 ? 1 : 0;
  }
  const auto member_flag = [&](std::size_t b) { return ws.flags.data() + b * n; };
  // Members a < b share pass k's walk iff their flags agree below k, that
  // is, iff first_diff[a B + b] >= k. Agreement on a prefix is an
  // equivalence, so the classes of a pass partition the block, and each
  // class is led by its smallest member.
  for (std::size_t a = 0; a < members; ++a) {
    for (std::size_t b = a + 1; b < members; ++b) {
      const std::uint8_t* const fa = member_flag(a);
      const std::uint8_t* const fb = member_flag(b);
      std::size_t d = 0;
      while (d < n && fa[d] == fb[d]) ++d;
      ws.first_diff[a * members + b] = static_cast<std::uint32_t>(d);
    }
  }
  const auto same_class = [&](std::size_t a, std::size_t b, std::size_t k) {  // a <= b
    return a == b || ws.first_diff[a * members + b] >= k;
  };
  // Predecessor CSR in position space, and each task's earliest
  // predecessor position (n for a task with none).
  for (std::size_t i = 0; i < n; ++i) {
    ws.pred_offsets[i + 1] = static_cast<std::uint32_t>(dag.predecessors(order[i]).size());
  }
  for (std::size_t i = 0; i < n; ++i) ws.pred_offsets[i + 1] += ws.pred_offsets[i];
  {
    std::vector<std::uint32_t> fill(ws.pred_offsets.begin(), ws.pred_offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      auto earliest = static_cast<std::uint32_t>(n);
      for (const VertexId p : dag.predecessors(order[i])) {
        ws.pred_list[fill[i]++] = ws.position[p];
        earliest = std::min(earliest, ws.position[p]);
      }
      ws.min_pred[i] = earliest;
    }
  }

  // --- Lanes: one per distinct lambda > 0, in first-appearance order. ---
  // lambda == 0 models take the closed form below; a call with no lane
  // walks nothing.
  std::size_t lane_count = 0;
  ws.lane_of.resize(model_count);
  for (std::size_t m = 0; m < model_count; ++m) {
    const double lambda = models[m].lambda();
    ws.lane_of[m] = kNoLane;
    if (lambda == 0.0) {
      for (std::size_t b = 0; b < members; ++b) {
        const std::uint8_t* const flag = member_flag(b);
        std::vector<double>* per_task =
            full.empty() ? nullptr : &full[b * model_count + m].per_task_expected;
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double xi = ws.work[i] + ws.ckpt[flag[i] * n + i];
          if (per_task) (*per_task)[i] = xi;
          total += xi;
        }
        totals[b * model_count + m] = total;
      }
      continue;
    }
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
    lane.expm1_wc.resize(kMath == EvalMath::fast ? 4 * n : 2 * n);
    // The memo's factors depend on this call's w_i and delta_i c_i, so
    // every position starts as a miss.
    lane.memo_lost.assign(2 * n, 0.0);
    lane.memo_a.resize(2 * n);
    lane.memo_b.resize(2 * n);
  }
  ws.tracks.assign(members * lane_count * 2 * n, 0.0);
  ws.bases.resize(members * lane_count);
  const auto accum_of = [&](std::size_t b, std::size_t lane) {
    return ws.tracks.data() + (b * lane_count + lane) * 2 * n;
  };

  // The combine of position i for member b, run in pass i, once accum[i]
  // is final and L^i_i known: E[X_i] = e^{lambda L^i_i} (1/lambda + D)
  // accum[i] from the model's lane, added to its total in ascending i.
  std::vector<double> rate_factor(model_count);  // 1/lambda + D
  for (std::size_t m = 0; m < model_count; ++m) {
    if (ws.lane_of[m] == kNoLane) continue;
    rate_factor[m] = 1.0 / models[m].lambda() + models[m].downtime();
  }
  const auto combine = [&](std::size_t b, std::size_t i, double self_loss) {
    for (std::size_t m = 0; m < model_count; ++m) {
      if (ws.lane_of[m] == kNoLane) continue;
      const double accum = accum_of(b, ws.lane_of[m])[i];
      const double lambda = models[m].lambda();
      // accum == 0 happens only when every reachable event has zero cost
      // (or its probability underflowed); guard against inf * 0. The
      // self_loss == 0 branch elides e^{lambda * 0} == 1.0 bit-identically.
      double xi = 0.0;
      if (accum != 0.0 && self_loss == 0.0) {
        xi = rate_factor[m] * accum;
      } else if (accum != 0.0) {
        xi = exp_port(lambda * self_loss) * rate_factor[m] * accum;
      }
      if (!full.empty()) full[b * model_count + m].per_task_expected[i] = xi;
      totals[b * model_count + m] += xi;
    }
  };

  // Lost work L^i_k for the current pass position k: DFS from i over lost,
  // non-checkpointed predecessors, under the class's flags `flag`.
  // `recovered_at[j] == epoch` marks tasks that already entered some T|k_l
  // with l <= i in this class walk (their output is back in memory), which
  // both deduplicates the DFS and implements the exclusion rule of
  // Definition 1. Only flags below k are read. Callers skip it when
  // min_pred[i] >= k: then no predecessor ran before the failure, L^i_k = 0
  // and nothing is marked.
  EvaluatorWorkspace::PassScratch& pass = ws.pass;
  const auto lost_work = [&](std::size_t i, std::size_t pass_k, const std::uint8_t* flag,
                             std::int32_t epoch) -> double {
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
        if (pass.recovered_at[j] == epoch) continue;      // already recovered/re-executed
        pass.recovered_at[j] = epoch;
        if (flag[j]) {
          lost += ws.recovery[j];  // reload the checkpoint; stop the walk here
        } else {
          lost += ws.work[j];  // re-execute; its own inputs are needed too
          stack.push_back(j);
        }
      }
    }
    return lost;
  };

  std::size_t sweeps = 0;
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
    // Where a member stages S (exact only: fast never reads it). A one-lane
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
    // expm1(lambda (w_i + delta_i c_i)) is memoized here, for both
    // checkpoint choices of every position, because it is the exact factor
    // every later pass needs whenever L^i_k == 0 — with no lost work,
    // lambda * (0.0 + w_i + c_i) has the same bit pattern as lambda * (w_i
    // + c_i) and e^{-lambda * 0} == 1.0, so reusing the memoized value is
    // bit-identical while skipping both transcendentals on the (dominant)
    // zero-loss pairs of the O(n^2) loop below.
    //
    // Like the per-record exp of every pass below, the pass's
    // transcendental arguments are staged into contiguous buffers and
    // handed to the batched sweeps (math_kernels.hpp) in one call each,
    // which is bit-identical to the element-wise port.
    for (EvaluatorWorkspace::Lane& lane : lanes) {
      const double lambda = lane.lambda;
      double* const decay_wc = lane.decay_wc();
      for (std::size_t s = 0; s < 2 * n; s += n) {  // delta = 0, then 1
        for (std::size_t i = 0; i < n; ++i) {
          lane.expm1_wc[s + i] = lambda * (ws.work[i] + ws.ckpt[s + i]);
          // e^{-lambda (w_i + delta_i c_i)}: fast's recurrence step where
          // L^i_k == 0.
          if constexpr (kMath == EvalMath::fast) decay_wc[s + i] = ws.work[i] + ws.ckpt[s + i];
        }
      }
      vexpm1(lane.expm1_wc.data(), lane.expm1_wc.data(), 2 * n);
      ++sweeps;
      if constexpr (kMath == EvalMath::fast) {
        vexp_neg_mul(lambda, decay_wc, decay_wc, 2 * n);
        ++sweeps;
      }
    }
    for (std::size_t b = 0; b < members; ++b) {
      const std::uint8_t* const flag = member_flag(b);
      if constexpr (kMath == EvalMath::exact) {
        double elapsed = 0.0;  // sum of w_j + delta_j c_j, j < i
        for (std::size_t i = 0; i < n; ++i) {
          staged_span[i] = elapsed;
          elapsed += ws.work[i] + ws.ckpt[flag[i] * n + i];
        }
      }
      for (std::size_t l = 0; l < lane_count; ++l) {
        EvaluatorWorkspace::Lane& lane = lanes[l];
        double* const accum = accum_of(b, l);
        double* const sum_prob = accum + n;
        if constexpr (kMath == EvalMath::fast) {
          // P(Z^i_{-1}) = prod_{j<i} e^{-lambda (w_j + delta_j c_j)}. Every
          // factor is <= 1, so once the product reaches 0 it stays there.
          const double* const decay_wc = lane.decay_wc();
          double p = 1.0;
          for (std::size_t i = 0; i < n && p > 0.0; ++i) {
            const std::size_t s = flag[i] * n + i;
            accum[i] += p * lane.expm1_wc[s];
            sum_prob[i] += p;
            p *= decay_wc[s];
          }
          continue;
        }
        vexp_neg_mul(lane.lambda, staged_span, pass.q.data(), n);
        ++sweeps;
        for (std::size_t i = 0; i < n; ++i) {
          const double p = pass.q[i];
          if (p > 0.0) {
            accum[i] += p * lane.expm1_wc[flag[i] * n + i];
            sum_prob[i] += p;
          }
        }
      }
    }

    // --- Passes k = 0..n-1: last failure during X_k. --------------------
    // Pass k reads flags below k only, so each class of members agreeing
    // there walks once, in a fresh recovered_at epoch.
    std::int32_t epoch = -1;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t leader = 0; leader < members; ++leader) {
        bool leads = true;
        for (std::size_t a = 0; a < leader && leads; ++a) leads = !same_class(a, leader, k);
        if (!leads) continue;
        const std::uint8_t* const class_flag = member_flag(leader);
        ++epoch;
        tick(nullptr);
        // L^k_k, needed by the combine whether or not any lane lives; its
        // DFS is the first of the class walk, and its marks hold for the
        // walk below.
        const double self_loss = ws.min_pred[k] < k ? lost_work(k, k, class_flag, epoch) : 0.0;
        tick(&walk_ns);
        // P(Z^{k+1}_k) = 1 - sum over earlier failure positions (property
        // B). It is final before pass k starts, so a dead lane (probability
        // mass exhausted, or k == n-1 with no later tasks) skips the pass;
        // when every lane of the class is dead the walk is skipped too: the
        // skipped DFS epoch marks are never read again.
        bool live = false;
        for (std::size_t b = leader; b < members; ++b) {
          if (!same_class(leader, b, k)) continue;
          combine(b, k, self_loss);
          for (std::size_t l = 0; l < lane_count; ++l) {
            const double* const sum_prob = accum_of(b, l) + n;
            const double base = k + 1 < n ? std::clamp(1.0 - sum_prob[k + 1], 0.0, 1.0) : 0.0;
            ws.bases[b * lane_count + l] = base;
            live = live || base > 0.0;
          }
        }
        if (!live) continue;
        tick(nullptr);

        // Walk once for the class: stage L^i_k of every record, and the
        // leader's S^i_k = sum_{k<j<i} (L^j_k + w_j + delta_j c_j).
        double span = 0.0;
        std::size_t records = 0;
        pass.lost_rec.clear();
        for (std::size_t i = k + 1; i < n; ++i) {
          double lost = 0.0;
          if (ws.min_pred[i] < k) {
            lost = lost_work(i, k, class_flag, epoch);
            ++dfs_records;
            if (lost != 0.0) pass.lost_rec.push_back(static_cast<std::uint32_t>(records));
          }
          pass.lost[records] = lost;
          if constexpr (kMath == EvalMath::exact) {
            staged_span[records] = span;
            span += lost + ws.work[i] + ws.ckpt[class_flag[i] * n + i];
          }
          ++records;
        }
        tick(&walk_ns);

        for (std::size_t b = leader; b < members; ++b) {
          if (!same_class(leader, b, k)) continue;
          const double* const base = ws.bases.data() + b * lane_count;
          if (std::none_of(base, base + lane_count, [](double p) { return p > 0.0; })) continue;
          const std::uint8_t* const flag = member_flag(b);
          staged_records += records;
          if (kMath == EvalMath::exact && b != leader) {
            // The other members stage their own S from the class's L.
            span = 0.0;
            for (std::size_t r = 0; r < records; ++r) {
              const std::size_t i = k + 1 + r;
              staged_span[r] = span;
              span += staged_lost[r] + ws.work[i] + ws.ckpt[flag[i] * n + i];
            }
            tick(&walk_ns);
          }

          for (std::size_t l = 0; l < lane_count; ++l) {
            const double lane_base = base[l];
            if (!(lane_base > 0.0)) continue;
            EvaluatorWorkspace::Lane& lane = lanes[l];
            double* const accum = accum_of(b, l);
            factor_lookups += pass.lost_rec.size();
            if constexpr (kMath == EvalMath::fast) {
              factor_misses += recurrence_step(ws, lane, flag, lane_base, accum, k + 1, records);
              continue;
            }

            // Per live lane, sweep q <- e^{-lambda S} for all records, and
            // compute the factors of the L > 0 records that miss the memo,
            // a <- e^{-lambda L} and b <- expm1(lambda (L + w_i + delta_i
            // c_i)), with the scalar port. The expressions and guards mirror
            // the historical element-wise code token for token, so the
            // accumulate consumes bit-identical factors.
            const double lambda = lane.lambda;
            vexp_neg_mul(lambda, staged_span, pass.q.data(), records);
            ++sweeps;
            for (const std::uint32_t r : pass.lost_rec) {
              // A record with q == 0 has p == 0: its factors are never read.
              const std::size_t i = k + 1 + r;
              const double lost = staged_lost[r];
              const double key = EvaluatorWorkspace::Lane::memo_key(lost, flag[i]);
              if (pass.q[r] > 0.0 && !lane.memo_find(i, n, key)) {
                // An overflowed expm1 makes the Eq.-(1) term +inf, as Algorithm
                // 1 computes it; a = 1 keeps an underflowed p * a from turning
                // it into 0 * inf = NaN.
                const double factor_b =
                    expm1_port(lambda * (lost + ws.work[i] + ws.ckpt[flag[i] * n + i]));
                lane.memo_lost[i] = key;
                lane.memo_a[i] = factor_b == kInf ? 1.0 : exp_port(-lambda * lost);
                lane.memo_b[i] = factor_b;
                ++factor_misses;
              }
            }

            // Accumulate the pass from its staged factors, i ascending.
            double* const sum_prob = accum + n;
            const double* const q = pass.q.data();
            const double* const expm1_wc = lane.expm1_wc.data();
            const double* const memo_a = lane.memo_a.data();
            const double* const memo_b = lane.memo_b.data();
            for (std::size_t r = 0; r < records; ++r) {
              const std::size_t i = k + 1 + r;
              const double p = q[r] * lane_base;
              if (p > 0.0) {
                accum[i] += staged_lost[r] == 0.0 ? p * expm1_wc[flag[i] * n + i]
                                                  : p * memo_a[i] * memo_b[i];
                sum_prob[i] += p;
              }
            }
          }
          tick(&lane_ns);
        }
      }
    }
  }

  metrics.runs.add(members * model_count);
  if (!lanes.empty()) metrics.walks.add(members);
  metrics.lanes.add(members * lane_count);
  metrics.sweeps.add(sweeps);
  metrics.records.add(staged_records);
  metrics.dfs_records.add(dfs_records);
  metrics.factor_lookups.add(factor_lookups);
  metrics.factor_misses.add(factor_misses);
  if (sampled) {
    metrics.walk_ns.add(walk_ns);
    metrics.lane_ns.add(lane_ns);
  }
}

std::size_t ScheduleEvaluator::recurrence_step(EvaluatorWorkspace& ws,
                                               EvaluatorWorkspace::Lane& lane,
                                               const std::uint8_t* flag, double base,
                                               double* accum, std::size_t first,
                                               std::size_t records) {
  EvaluatorWorkspace::PassScratch& pass = ws.pass;
  const double lambda = lane.lambda;
  const double* const staged_lost = pass.lost.data();
  const double* const decay_wc = lane.decay_wc();
  const std::size_t n = ws.work.size();
  double* const sum_prob = accum + n;
  // For each L > 0 record that misses the memo, memoize its step factor
  // e^{-lambda L} e^{-lambda (w_i + delta_i c_i)} and its Eq.-(1) factor
  // e^{-lambda L} expm1(lambda (L + w_i + delta_i c_i)).
  std::size_t misses = 0;
  for (const std::uint32_t r : pass.lost_rec) {
    const std::size_t i = first + r;
    const std::size_t s = flag[i] * n + i;
    const double lost = staged_lost[r];
    const double key = EvaluatorWorkspace::Lane::memo_key(lost, flag[i]);
    if (!lane.memo_find(i, n, key)) {
      const double a = exp_port(-lambda * lost);
      const double b = expm1_port(lambda * (lost + ws.work[i] + ws.ckpt[s]));
      lane.memo_lost[i] = key;
      lane.memo_a[i] = a * decay_wc[s];
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
    const double p = q * base;
    if (!(p > 0.0)) break;
    const std::size_t s = flag[i] * n + i;
    const bool lost = staged_lost[r] != 0.0;
    accum[i] += p * (lost ? lane.memo_b[i] : lane.expm1_wc[s]);
    sum_prob[i] += p;
    q *= lost ? lane.memo_a[i] : decay_wc[s];
  }
  return misses;
}

}  // namespace fpsched
