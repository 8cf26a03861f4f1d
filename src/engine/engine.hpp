// ExperimentEngine: parallel execution of scenario lists on one pool.
//
// The engine's unit of work is the *cell group*: the scenarios of one
// run() call that are equal in every ScenarioSpec field except the
// failure model (lambda, D), the scenario index and, for a
// simulated_best policy, the Monte-Carlo re-scoring (sim_distribution,
// sim_shape, sim_trials, sim_seed), which only the member's own policy
// step reads. A group's members share the instance, the heuristics their
// policy runs and every candidate schedule, so one worker runs them
// together: each block of budget candidates is built once and evaluated
// for all members' models in one evaluator call (the lost-work walk once
// per class of candidates, the exp/expm1 sweeps once per candidate and
// distinct lambda, the combine once per candidate and model; see
// evaluator.hpp and heuristic.hpp), and each member then applies its policy
// to its own model's results. The robustness study's four rows of a
// workflow are thus one search, each re-scored under its own failure law
// and seed. A scenario with no sibling is a group of one. Records, the
// ordered callback, shards and result caches stay per scenario: a shard
// boundary or a cache hit only makes a group smaller.
//
// The engine owns one ThreadPool for its whole lifetime (threads - 1
// workers; none for a serial engine) and runs every loop it parallelizes
// through parallel_for_workers on that pool: the cell groups of run(),
// the items of for_each, and — nested in each of those — every budget
// sweep. Besides the HTTP server's connection workers, it is the only
// pool in the library: the Monte-Carlo, exact and greedy searches run
// serially inside the engine's workers. The calling thread is worker 0
// of the outer loop and pool workers join as helpers while they are
// idle, so a batch with fewer groups than workers still fills the cores
// from its in-flight sweeps, while a saturated pool posts no sweep
// helpers at all. The worker index picks per-worker scratch: the
// instance memo and evaluator workspace of a group worker, the workspace
// of a sweep helper. Every scenario's result depends only on its
// ScenarioSpec (instance seeds, RNG streams and the evaluator algorithm
// are part of the spec), so results are bit-for-bit identical for any
// thread count or grouping.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/instance_cache.hpp"
#include "engine/scenario.hpp"
#include "heuristics/heuristic.hpp"

namespace fpsched::engine {

struct EngineOptions {
  /// Worker threads (the caller plus threads - 1 pool workers). 0 =
  /// default_thread_count() (honors FPSCHED_THREADS); 1 = serial, with no
  /// pool and no thread besides the caller. Clamped to kMaxPoolThreads —
  /// an absurd request must degrade to "as wide as is useful", not
  /// exhaust the host's thread limit.
  std::size_t threads = 0;
};

/// Outcome of one scenario.
struct ScenarioResult {
  ScenarioSpec spec;
  Evaluation evaluation;
  /// The linearization that produced `evaluation` (for best_linearization
  /// policies, the winner; fixed policies echo the spec).
  LinearizeMethod linearization = LinearizeMethod::depth_first;
  std::size_t best_budget = 0;

  double ratio() const { return evaluation.ratio; }
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineOptions options = {});
  ~ExperimentEngine();

  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  /// Effective worker count (>= 1).
  std::size_t thread_count() const { return threads_; }

  /// Heuristic options for code running inside one of this engine's
  /// workers: sweeps evaluate on `workspace` and may be joined by idle
  /// workers of the engine's pool. Callers layer their stride,
  /// linearization and evaluator algorithm on top.
  HeuristicOptions worker_options(EvaluatorWorkspace& workspace) const;

  /// Streaming hook for run(): called once per scenario with its input
  /// index and result. Deliveries are serialized and strictly ordered —
  /// index i fires only after every j < i has fired — so a consumer can
  /// stream records live, in flattened order, while later scenarios are
  /// still computing on other workers.
  using ResultCallback = std::function<void(std::size_t, const ScenarioResult&)>;

  /// Runs every scenario, one cell group per work unit (groups start in
  /// first-appearance order); each result is a function of its spec
  /// alone, evaluator algorithm included. Results come back in input
  /// order and are independent of the thread count and of the grouping.
  /// A non-null `on_result` receives each result in input order as soon as
  /// its ordered prefix completes, so a record may wait for the rest of
  /// its group. Safe to call concurrently.
  std::vector<ScenarioResult> run(std::span<const ScenarioSpec> specs,
                                  const ResultCallback& on_result = {}) const;

  /// Parallel execution of `count` custom work items: body(index,
  /// workspace) runs once per index on some worker, with one stable
  /// scratch workspace per worker. The body must write only index-owned
  /// state. Building block for the study benches whose scenarios are not
  /// plain kind x size grids (theory instances, ablations, exact solvers).
  void for_each(std::size_t count,
                const std::function<void(std::size_t, EvaluatorWorkspace&)>& body) const;

 private:
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace fpsched::engine
