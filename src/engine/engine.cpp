#include "engine/engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_distribution.hpp"
#include "sim/simulator.hpp"
#include "sim/trial_runner.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/sync.hpp"
#include "support/threading.hpp"

namespace fpsched::engine {

namespace {

// Telemetry only (see obs/metrics.hpp for the contract). busy_ns sums the
// wall time of every cell group across all workers — together with
// run_seconds it yields worker utilization (busy / (wall * threads)).
struct EngineMetrics {
  obs::Counter& runs;
  obs::Counter& scenarios;
  obs::Counter& busy_ns;
  obs::Counter& cache_hits;
  obs::Histogram& run_seconds;
  obs::Histogram& scenario_seconds;
  obs::Gauge& emitter_buffered;
  obs::Gauge& emitter_buffered_peak;
};

EngineMetrics& engine_metrics() {
  static EngineMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return new EngineMetrics{
        reg.counter("fpsched_engine_runs_total", "engine batch runs"),
        reg.counter("fpsched_engine_scenarios_total", "scenarios executed"),
        reg.counter("fpsched_engine_busy_ns_total",
                    "summed per-cell-group wall nanoseconds across workers"),
        reg.counter("fpsched_instance_cache_hits_total",
                    "scenario lookups served by an already-materialized instance"),
        reg.histogram("fpsched_engine_run_seconds", "wall seconds per engine batch run",
                      obs::latency_buckets_seconds()),
        reg.histogram("fpsched_engine_scenario_seconds",
                      "wall seconds per cell group (the scenarios one work unit computes)",
                      obs::latency_buckets_seconds()),
        reg.gauge("fpsched_engine_emitter_buffered",
                  "results completed out of order, held for in-order emission"),
        reg.gauge("fpsched_engine_emitter_buffered_peak",
                  "high-water mark of out-of-order results held by the emitter")};
  }();
  return *metrics;
}

}  // namespace

ExperimentEngine::ExperimentEngine(EngineOptions options)
    : threads_(options.threads == 0 ? default_thread_count()
                                    : std::min(options.threads, kMaxPoolThreads)),
      pool_(threads_ > 1 ? std::make_unique<ThreadPool>(threads_ - 1) : nullptr) {}

ExperimentEngine::~ExperimentEngine() = default;

HeuristicOptions ExperimentEngine::worker_options(EvaluatorWorkspace& workspace) const {
  HeuristicOptions options;
  options.workspace = &workspace;
  options.pool = pool_.get();
  return options;
}

namespace {

/// The policy-selection logic of one scenario. `run_one(heuristic)` must
/// return what run_heuristic returns for that heuristic on the scenario's
/// evaluator; the reference need only live until the next call. `graph`
/// is the scenario's instance (needed by simulated_best, which replays the
/// winning schedule through the fault simulator).
template <typename RunFn>
ScenarioResult execute_policy(const ScenarioSpec& spec, const TaskGraph& graph, RunFn&& run_one) {
  ScenarioResult result;
  result.spec = spec;
  if (spec.policy.kind == ScenarioPolicy::Kind::fixed_heuristic) {
    const HeuristicResult& run = run_one(spec.policy.heuristic);
    result.evaluation = run.evaluation;
    result.linearization = spec.policy.heuristic.linearization;
    result.best_budget = run.best_budget;
    return result;
  }

  if (spec.policy.kind == ScenarioPolicy::Kind::simulated_best) {
    // Robustness study: pick the schedule that wins across ALL heuristics
    // under the analytic (exponential) model, then re-score it under the
    // policy's failure law. The analytic row keeps the evaluator's
    // expectation; the simulated rows replace expected_makespan (and the
    // ratio derived from it) with the Monte-Carlo mean.
    const std::vector<HeuristicSpec>& heuristics = all_heuristics();
    std::vector<HeuristicResult> runs;
    runs.reserve(heuristics.size());
    for (const HeuristicSpec& heuristic : heuristics) runs.push_back(run_one(heuristic));
    const HeuristicResult& best = runs[best_result_index(runs)];
    result.evaluation = best.evaluation;
    result.linearization = best.spec.linearization;
    result.best_budget = best.best_budget;
    if (spec.policy.sim_distribution == ScenarioPolicy::SimDistribution::analytic) return result;

    const double lambda = spec.model.lambda();
    ensure(lambda > 0.0, "a simulated policy needs lambda > 0 (" + spec.label() + ")");
    ensure(spec.policy.sim_trials >= 1,
           "a simulated policy needs sim_trials >= 1 (" + spec.label() + ")");
    const FaultDistribution faults =
        spec.policy.sim_distribution == ScenarioPolicy::SimDistribution::exponential
            ? FaultDistribution::exponential(lambda)
            : FaultDistribution::weibull_from_mtbf(spec.policy.sim_shape, 1.0 / lambda);
    const FaultSimulator simulator(graph, spec.model, best.schedule);
    const TrialOptions trials{.trials = spec.policy.sim_trials, .seed = spec.policy.sim_seed};
    const MonteCarloSummary summary = run_trials_with_distribution(simulator, faults, trials);
    result.evaluation.expected_makespan = summary.mean_makespan();
    result.evaluation.ratio = result.evaluation.total_weight > 0.0
                                  ? summary.mean_makespan() / result.evaluation.total_weight
                                  : 1.0;
    return result;
  }

  // best_linearization: the selection rule of Figures 3 and 5-7 — keep the
  // linearization with the smallest ratio. CkptNvr / CkptAlws are defined
  // with the DF linearization only (Section 5).
  if (!is_budgeted(spec.policy.strategy)) {
    const HeuristicResult& run = run_one({LinearizeMethod::depth_first, spec.policy.strategy});
    result.evaluation = run.evaluation;
    result.linearization = LinearizeMethod::depth_first;
    result.best_budget = run.best_budget;
    return result;
  }
  double best = std::numeric_limits<double>::infinity();
  for (const LinearizeMethod lin : all_linearize_methods()) {
    const HeuristicResult& run = run_one({lin, spec.policy.strategy});
    if (run.evaluation.ratio < best) {
      best = run.evaluation.ratio;
      result.evaluation = run.evaluation;
      result.linearization = lin;
      result.best_budget = run.best_budget;
    }
  }
  return result;
}

/// The cell-group key: canonical_spec_string with the failure model, the
/// scenario index and a simulated_best policy's re-scoring fields
/// blanked, so scenarios differing only in those share it while any
/// other spec field — today's or a future one — splits them.
std::string cell_group_key(ScenarioSpec spec) {
  spec.model = FailureModel(0.0);
  spec.scenario_index = 0;
  if (spec.policy.kind == ScenarioPolicy::Kind::simulated_best) {
    spec.policy.sim_distribution = ScenarioPolicy::SimDistribution::analytic;
    spec.policy.sim_shape = 0.0;
    spec.policy.sim_trials = 0;
    spec.policy.sim_seed = 0;
  }
  return canonical_spec_string(spec);
}

/// Partitions specs into cell groups, in first-appearance order; each
/// group lists its members' input indices ascending. Siblings need not be
/// adjacent (a grid enumerates its points outside the policy).
std::vector<std::vector<std::size_t>> cell_groups(std::span<const ScenarioSpec> specs) {
  std::map<std::string, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [it, inserted] = group_of.try_emplace(cell_group_key(specs[i]), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

/// Runs one cell group against its materialized instance: every
/// heuristic the (shared) policy asks for runs once, for all members'
/// failure models together (see run_heuristic's multi-model overload),
/// and each member's policy then selects from its own model's results —
/// bit-identical to running the members one by one. `options` carries
/// the worker's workspace and pool; the stride and the evaluator
/// algorithm come from the group's spec.
std::vector<ScenarioResult> run_cell_group(std::span<const ScenarioSpec* const> members,
                                           InstanceCache& cache, HeuristicOptions options) {
  const ScenarioSpec& first = *members.front();
  for (const ScenarioSpec* spec : members) {
    ensure(cache.key() == InstanceKey::of(*spec),
           "instance cache does not match the scenario (" + spec->label() + ")");
  }
  ensure(first.stride >= 1, "scenario stride must be >= 1 (" + first.label() + ")");
  EngineMetrics& metrics = engine_metrics();
  const obs::ScopedTimer timer(&metrics.scenario_seconds, &metrics.busy_ns);
  const obs::TraceSpan span([&] {
    std::string name = "scenario " + first.label();
    if (members.size() > 1) name += " +" + std::to_string(members.size() - 1) + " siblings";
    return name;
  });
  metrics.scenarios.add(members.size());
  const TaskGraph& graph = cache.graph_for(first.cost_model);
  const ScheduleEvaluator evaluator(graph, first.model);
  std::vector<FailureModel> models;
  models.reserve(members.size());
  for (const ScenarioSpec* spec : members) models.push_back(spec->model);
  options.stride = first.stride;
  options.eval = first.eval_math;

  // One entry per heuristic run so far, results by member; a deque keeps
  // earlier entries in place while later ones are added.
  std::deque<std::pair<HeuristicSpec, std::vector<HeuristicResult>>> memo;
  const auto runs_of = [&](const HeuristicSpec& heuristic) -> const std::vector<HeuristicResult>& {
    for (const auto& [ran, runs] : memo) {
      if (ran == heuristic) return runs;
    }
    memo.emplace_back(heuristic, run_heuristic(evaluator, models, heuristic,
                                               cache.order(heuristic.linearization), options));
    return memo.back().second;
  };
  std::vector<ScenarioResult> results;
  results.reserve(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    results.push_back(execute_policy(*members[m], graph, [&](const HeuristicSpec& heuristic)
                                         -> const HeuristicResult& { return runs_of(heuristic)[m]; }));
  }
  return results;
}

}  // namespace

namespace {

/// Per-worker memo of materialized instances. A worker lazily
/// materializes each InstanceKey it encounters once and replays it for
/// all of its cell groups with that key (grouping work units by instance
/// would cap parallelism at the number of distinct instances — a
/// lambda/downtime sweep has one per panel). Grids emit an instance's
/// cells consecutively, so the last-used cache almost always hits. Hits
/// count per scenario: a group of m scenarios counts m hits when its
/// instance is cached and m - 1 when it is materialized for it.
class WorkerInstanceCaches {
 public:
  InstanceCache& for_group(const ScenarioSpec& spec, std::size_t scenarios) {
    const InstanceKey key = InstanceKey::of(spec);
    for (std::size_t i = caches_.size(); i-- > 0;) {
      if (caches_[i]->key() == key) {
        engine_metrics().cache_hits.add(scenarios);
        return *caches_[i];
      }
    }
    caches_.push_back(std::make_unique<InstanceCache>(spec));
    engine_metrics().cache_hits.add(scenarios - 1);
    return *caches_.back();
  }

 private:
  std::vector<std::unique_ptr<InstanceCache>> caches_;
};

/// Turns out-of-order scenario completions into the in-order
/// ResultCallback contract: a worker marks its slot done, and whoever
/// extends the completed prefix delivers the pending callbacks under one
/// mutex (which also serializes the callback itself — consumers need no
/// locking of their own).
class OrderedEmitter {
 public:
  OrderedEmitter(const ExperimentEngine::ResultCallback& on_result,
                 const std::vector<ScenarioResult>& results)
      : on_result_(on_result), results_(results), done_(results.size(), false) {}

  void complete(std::size_t index) EXCLUDES(mutex_) {
    if (!on_result_) return;
    const LockGuard lock(mutex_);
    done_[index] = true;
    ++done_count_;
    while (next_ < done_.size() && done_[next_]) {
      on_result_(next_, results_[next_]);
      ++next_;
    }
    // Completed-but-not-yet-emitted results = head-of-line blocking depth.
    const auto buffered = static_cast<std::int64_t>(done_count_ - next_);
    engine_metrics().emitter_buffered.set(buffered);
    engine_metrics().emitter_buffered_peak.set_max(buffered);
  }

 private:
  const ExperimentEngine::ResultCallback& on_result_;
  const std::vector<ScenarioResult>& results_;
  Mutex mutex_;
  std::vector<char> done_ GUARDED_BY(mutex_);
  std::size_t done_count_ GUARDED_BY(mutex_) = 0;
  std::size_t next_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

std::vector<ScenarioResult> ExperimentEngine::run(std::span<const ScenarioSpec> specs,
                                                  const ResultCallback& on_result) const {
  EngineMetrics& metrics = engine_metrics();
  metrics.runs.add(1);
  const obs::ScopedTimer run_timer(metrics.run_seconds);
  const obs::TraceSpan run_span([&] {
    return "engine.run " + std::to_string(specs.size()) + " scenarios";
  });
  std::vector<ScenarioResult> results(specs.size());
  OrderedEmitter emitter(on_result, results);
  // The work unit is the cell group. Every result is a pure function of
  // its spec (the cached instance is a pure function of its key, and a
  // group computes each member exactly as a group of one would) and lands
  // in its input-order slot, so the output is identical for any thread
  // count, work distribution or grouping.
  const std::vector<std::vector<std::size_t>> groups = cell_groups(specs);
  const std::size_t slots = std::min(worker_slots(pool_.get()), groups.size());
  std::vector<WorkerInstanceCaches> caches(slots);
  std::vector<EvaluatorWorkspace> workspaces(slots);
  parallel_for_workers(pool_.get(), 0, groups.size(), [&](std::size_t g, std::size_t worker) {
    const std::vector<std::size_t>& group = groups[g];
    std::vector<const ScenarioSpec*> members;
    members.reserve(group.size());
    for (const std::size_t index : group) members.push_back(&specs[index]);
    InstanceCache& cache = caches[worker].for_group(*members.front(), members.size());
    std::vector<ScenarioResult> computed =
        run_cell_group(members, cache, worker_options(workspaces[worker]));
    for (std::size_t m = 0; m < group.size(); ++m) {
      results[group[m]] = std::move(computed[m]);
      emitter.complete(group[m]);
    }
  });
  return results;
}

void ExperimentEngine::for_each(
    std::size_t count, const std::function<void(std::size_t, EvaluatorWorkspace&)>& body) const {
  std::vector<EvaluatorWorkspace> workspaces(std::min(worker_slots(pool_.get()), count));
  parallel_for_workers(pool_.get(), 0, count,
                       [&](std::size_t index, std::size_t worker) { body(index, workspaces[worker]); });
}

}  // namespace fpsched::engine
