// Expected-makespan evaluation of a schedule (Theorem 3 of the paper).
//
// Notation (tasks renumbered in linearization order, positions 0..n-1):
//  * X_i  = time between the first successful completions of tasks i-1
//           and i;
//  * Z^i_k = "the last failure before X_i happened during X_k" (k = -1
//           denotes "no failure so far");
//  * T|k_i = the set of predecessors of task i whose output was lost by
//           that failure and is still needed: checkpointed members
//           contribute their recovery cost, non-checkpointed members must
//           be re-executed (and their own predecessors examined in turn);
//  * L^i_k = total lost-work cost (W^i_k + R^i_k in the paper).
//
// Then E[makespan] = sum_i sum_k P(Z^i_k) E[t(L^i_k + w_i; d_i c_i;
// L^i_i - L^i_k)] with E[t] from Eq. (1). The paper evaluates the L table
// with Algorithm 1 in O(n^3) per failure position (O(n^4) total); this
// implementation is an exact algebraic equivalent in O(n*E + n^2) time and
// O(n + E) transient space:
//  * a `recovered` epoch array replaces the n x n `tab_k` state matrix
//    (during pass k a task enters at most one T|k_i);
//  * probabilities stream in the same k-major order using
//    P(Z^i_k) = exp(-lambda * S^i_k) P(Z^{k+1}_k), where S^i_k accumulates
//    L^j_k + w_j + d_j c_j over k < j < i, and P(Z^{k+1}_k) =
//    1 - sum_{k'<k} P(Z^{k+1}_{k'}) (property B of Theorem 3);
//  * the factor e^{lambda L^i_i}, which depends on the k = i pass, is
//    applied in pass i, once the sum it scales is final.
//
// The paper-faithful O(n^4) transcription lives in evaluator_naive.hpp and
// the two are cross-checked on randomized DAGs by the test suite.
//
// One call can serve several failure models (a cell group of the engine:
// scenarios that differ only in lambda and D). Nothing above except the
// probabilities depends on lambda: the reindex, the lost-work sets T|k_i
// and their costs L^i_k, and the spans S^i_k are properties of the
// schedule, and D enters only through the combine factor 1/lambda + D.
// So one pass loop walks the DFS once per pass and stages S and L into
// shared buffers, then runs the exp/expm1 sweeps and the accumulate once
// per *lane* (a distinct lambda > 0) and the O(n) combine once per model.
// A lane whose P(Z^{k+1}_k) is 0 skips pass k exactly as a one-model
// call does, and every model consumes the same doubles in the same order
// as a call with that model alone, so the result is bit-identical to
// evaluating the models one at a time. The one-model calls are this loop
// with a single model.
//
// One call can also serve a block of schedules on one linearization that
// differ only in their checkpoint flags (a budget sweep's consecutive
// candidates; see heuristic.hpp). Pass k reads flags only at positions
// below k: the DFS skips every predecessor at position k or later, and
// L^k_k's DFS is the pass's first. So members whose flags agree below k
// have the same L^i_k and L^k_k in pass k. Agreement on a prefix is an
// equivalence, so each pass partitions the block into classes, led by
// their smallest member; the pass walks once per class, in a recovered_at
// epoch of its own, and every member of the class stages its own S^i_k
// from the class's L (S includes delta_j c_j) and runs its own lanes. The
// lanes' tables (expm1_wc, fast's decay factors, the factor memo) are
// shared by the members: each holds both checkpoint choices of every
// position, so a member reads exactly the doubles its own call would
// compute. Each member consumes the same doubles in the same order as a
// call of its own, so its makespans are bit-identical to that call's;
// every other call is a block of one.
//
// Two shortcuts keep the pass loop from redoing work whose result it
// already knows, and neither moves a byte:
//  * the walk skips the DFS of a record (k, i) when every predecessor of
//    task i sits at position >= k (min_pred[i] >= k): nothing before the
//    failure is needed, so L^i_k = 0 and the DFS would mark nothing. On
//    the figure grids 35-70% of the records take this exit.
//  * each lane memoizes, per position i, the last two L^i_k > 0 its
//    members met there, each with its flag delta_i, and the two factors
//    derived from each. Within one call those factors are a pure function
//    of (lambda, i, delta_i, L^i_k), and T|k_i rarely changes from one pass
//    to the next (94-98% of the records with lost work repeat their task's
//    previous L), so only memo misses compute their factors; a hit reads
//    the very doubles that computation would return. T|k_i only ever grows
//    with k (if a record before i recovers a task in pass k', some record
//    before i recovers it in every earlier pass k in which it is already
//    lost), so one schedule never meets a replaced L again; the second
//    entry keeps the L of a second class of a block, which one entry would
//    thrash against. The memo is reset on every call, since w_i and c_i are
//    not fixed across calls.
//
// Every exp and expm1 of both algorithms comes from the repository's own
// port of glibc 2.36's FMA variants (math_kernels.hpp), never from libm,
// so a record has the same bytes on every host:
//  * the port is self-contained: glibc picks its own exp and expm1 per
//    CPU at load time, and its FMA and generic variants round
//    differently, but no libm routine runs here;
//  * its fused multiply-adds round correctly everywhere (the FMA
//    instruction, or an exact software emulation where the CPU has none),
//    so the port computes the same doubles with and without FMA hardware;
//  * the build uses -ffp-contract=off, so no compiler flag can fuse an
//    operation that the code does not fuse explicitly.
// On FMA hosts (any x86-64 CPU with AVX2 and FMA, where glibc ran its FMA
// variants) these are the bytes of every earlier release.
//
// Two algorithms share that loop and differ only in each lane's step
// (EvalMath, selected per call; CLI --eval-math and HTTP eval_math set
// the ScenarioSpec field the engine reads, and nothing selects `fast`
// implicitly):
//  * exact — P(Z^i_k) = exp(-lambda S^i_k) P(Z^{k+1}_k), one exp per
//    (k, i) record, in the historical expression shapes. The default
//    everywhere.
//  * fast — the same probabilities as a running product. Within a pass
//    S^i_k is a prefix sum, so e^{-lambda S} steps from record to record
//    by the success factor e^{-lambda L^i_k} e^{-lambda (w_i + d_i c_i)}:
//    the first factor comes from the lane's memo (20-23% of the records
//    have lost work on the figure grids, and a few percent of those miss
//    it) and the second is memoized per lane in pass -1, which drops the
//    exp per record. The product drifts from the exp of the sum by O(n)
//    ulp: within 1e-10 relative of exact and of Algorithm 1
//    (tests/evaluator_reference_test.cpp). It is as deterministic as
//    exact: serial arithmetic on the same port, so neither the thread
//    count, the shard split nor the host's CPU moves a byte. Fast records
//    carry "eval_math":"fast", so that no fast record passes for exact.
//
// Every evaluation is serial: the engine parallelizes over cell groups
// and budget blocks, which already fill the cores (see engine.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "core/schedule.hpp"
#include "workflows/task_graph.hpp"

namespace fpsched {

/// Which algorithm an evaluation uses for the failure probabilities.
enum class EvalMath : std::uint8_t {
  exact,  ///< one exp per record; the historical output, on every host.
  fast,   ///< prefix-product recurrence, within 1e-10 relative of exact.
};

std::string to_string(EvalMath math);

/// Parses "exact" / "fast"; throws InvalidArgument otherwise.
EvalMath parse_eval_math(const std::string& text);

/// Result of evaluating one schedule.
struct Evaluation {
  /// E[makespan]; +inf when the schedule essentially never finishes under
  /// the model (overflow of Eq. (1) for a failure-dominated segment).
  double expected_makespan = 0.0;
  /// Execution time with zero failures but all scheduled checkpoints.
  double fault_free_time = 0.0;
  /// T_inf of the paper: failure-free and checkpoint-free time (sum w_i).
  double total_weight = 0.0;
  /// expected_makespan / total_weight — the paper's plotted metric.
  double ratio = 0.0;
  std::size_t checkpoint_count = 0;
  /// E[X_i] by schedule position.
  std::vector<double> per_task_expected;
};

/// Scratch buffers reused across evaluations; concurrent evaluations
/// need distinct workspaces. Cache-line aligned: the evaluator updates the
/// buffers' bookkeeping in its hot loops, and workspaces of concurrent
/// workers often sit side by side in one vector.
class alignas(64) EvaluatorWorkspace {
 public:
  EvaluatorWorkspace() = default;

 private:
  friend class ScheduleEvaluator;

  /// Per-pass staging. A class walk stages the L^i_k of every (k, i)
  /// record once for its members; each member then stages its own
  /// lambda-independent S^i_k, and each of its live lanes computes its
  /// factors from them. The L > 0 records (lost_rec) that miss the lane's
  /// memo get e^{-lambda L^i_k} and expm1(lambda (L^i_k + w_i + delta_i
  /// c_i)) from the scalar port (see math_kernels.hpp), which the lane's
  /// memo then keeps; records with L^i_k == 0 reuse the lane's expm1_wc.
  /// exact also sweeps q = e^{-lambda S^i_k}.
  struct PassScratch {
    std::vector<std::int32_t> recovered_at;  // the class walk (epoch) that last recovered a task
    std::vector<std::uint32_t> dfs_stack;
    // A member's staged S^i_k (pass -1: the fault-free prefix) when a call
    // has several lanes; a one-lane call stages it straight into q, which
    // its in-place sweep then consumes.
    std::vector<double> span;
    std::vector<double> lost;             // staged L^i_k, read by every member of the class
    std::vector<std::uint32_t> lost_rec;  // record index of each L^i_k > 0
    std::vector<double> q;
  };

  /// The lambda-dependent tables of one lane (a distinct lambda > 0 of a
  /// call), shared by every member of the block; models sharing a lambda
  /// share its lane. A table depends on position i only through w_i and
  /// delta_i c_i, so it holds both checkpoint choices of every position:
  /// delta_i = 0 at [0, n) and delta_i = 1 at [n, 2n).
  struct Lane {
    double lambda = 0.0;
    /// expm1(lambda (w_i + delta_i c_i)) at [0, 2n). Fast also memoizes
    /// e^{-lambda (w_i + delta_i c_i)} at [2n, 4n) (decay_wc()): one buffer
    /// keeps a Lane, and so the heap placement of exact's buffers,
    /// independent of fast mode; placement alone moves the exact evaluator
    /// by several percent at n = 700.
    std::vector<double> expm1_wc;
    /// The factor memo, two entries (ways) per position i, the most
    /// recently used at [0, n) and the other at [n, 2n): the key of an
    /// L^i_k > 0 met under flag delta_i (memo_key() below; 0.0 = none yet
    /// this call) and the two factors derived from it — exact: a =
    /// e^{-lambda L} (1 where b overflowed) and b = expm1(lambda (L + w_i +
    /// delta_i c_i)); fast: the step factor e^{-lambda L} e^{-lambda (w_i +
    /// delta_i c_i)} and the Eq.-(1) factor e^{-lambda L} b (+inf where b
    /// overflowed). Members of different classes can meet different L at
    /// one position, and one entry would thrash between them; on the
    /// figure sweeps two entries beat one and four (whose lookups cost
    /// more than the misses they save).
    std::vector<double> memo_lost;
    std::vector<double> memo_a;
    std::vector<double> memo_b;

    double* decay_wc() { return expm1_wc.data() + expm1_wc.size() / 2; }
    /// The memo key of L > 0 under flag delta: L, negated when delta = 1.
    static double memo_key(double lost, std::uint8_t flag) { return flag ? -lost : lost; }
    /// Whether `key` is memoized at position i of an n-task call; either
    /// way it then owns the most recent entry (on a miss, the caller
    /// fills it, replacing the older one).
    bool memo_find(std::size_t i, std::size_t n, double key) {
      return memo_lost[i] == key || memo_swap(i, n, key);
    }
    /// memo_find's second way: swaps the two entries of position i.
    bool memo_swap(std::size_t i, std::size_t n, double key);
  };

  std::vector<double> work;              // w by position
  std::vector<double> ckpt;              // delta_i c_i: 0.0 at [0, n), c_i at [n, 2n)
  std::vector<double> recovery;          // r by position
  std::vector<std::uint8_t> flags;       // member b's checkpoint flag (0/1) at [b n + i]
  std::vector<std::uint32_t> first_diff; // [a B + b], a < b: first position where a, b differ
  std::vector<std::uint32_t> pred_offsets;
  std::vector<std::uint32_t> pred_list;  // predecessor positions, CSR
  std::vector<std::uint32_t> min_pred;   // smallest predecessor position (n: none)
  std::vector<std::uint32_t> position;   // vertex id -> position
  std::vector<Lane> lanes;               // grown to the widest call seen
  std::vector<std::size_t> lane_of;      // model -> lane (npos for lambda == 0)
  /// Member b's state under lane l, at [(b L + l) 2n]: B[i], the sum of
  /// its conditional terms, at [0, n) and the sum over processed k of
  /// P(Z^i_k) at [n, 2n).
  std::vector<double> tracks;
  std::vector<double> bases;  // P(Z^{k+1}_k) of the current pass, by [b L + l]
  PassScratch pass;

  void resize(std::size_t n, std::size_t edges, std::size_t members);
};

/// Evaluates schedules on one task graph under its failure model — or,
/// through the multi-model calls, under several models at once. The
/// object is immutable after construction and safe to share across
/// threads; concurrent calls must pass distinct workspaces.
class ScheduleEvaluator {
 public:
  ScheduleEvaluator(const TaskGraph& graph, FailureModel model);

  const TaskGraph& graph() const { return *graph_; }
  const FailureModel& model() const { return model_; }

  /// Full evaluation (validates the schedule). `math` selects the
  /// algorithm exactly as for expected_makespan.
  Evaluation evaluate(const Schedule& schedule) const;
  Evaluation evaluate(const Schedule& schedule, EvaluatorWorkspace& ws,
                      EvalMath math = EvalMath::exact) const;

  /// Full evaluation under each of `models` (which stand in for model())
  /// in one call: out[m] is bit-identical to evaluate(schedule, ws, math)
  /// on an evaluator for models[m]. `out` must hold one slot per model.
  void evaluate(const Schedule& schedule, std::span<const FailureModel> models,
                EvaluatorWorkspace& ws, std::span<Evaluation> out,
                EvalMath math = EvalMath::exact) const;

  /// Fast path returning only E[makespan]; used by the heuristic sweeps.
  /// `validate` can be disabled when the caller constructed the schedule
  /// from a known-valid linearization. `math` picks the algorithm:
  /// `exact` (the default) reproduces the historical bytes; `fast` runs
  /// the prefix-product recurrence, within 1e-10 relative of exact (see
  /// the header comment).
  double expected_makespan(const Schedule& schedule, EvaluatorWorkspace& ws,
                           bool validate = true, EvalMath math = EvalMath::exact) const;

  /// E[makespan] under each of `models` (which stand in for model()) in
  /// one call: the lost-work walk runs once, the sweeps once per distinct
  /// lambda and the combine once per model. out[m] is bit-identical to
  /// expected_makespan on an evaluator for models[m]. `out` must hold one
  /// slot per model.
  void expected_makespans(const Schedule& schedule, std::span<const FailureModel> models,
                          EvaluatorWorkspace& ws, std::span<double> out, bool validate = true,
                          EvalMath math = EvalMath::exact) const;

  /// E[makespan] of every member of `block` under each of `models`, in one
  /// call: each pass walks once per class of members whose flags agree
  /// below it (see the header comment). out[b * models.size() + m] is
  /// bit-identical to expected_makespans of member b alone; `out` must
  /// hold one slot per member and model. Members may repeat and need not
  /// nest.
  void expected_makespans(const ScheduleBlock& block, std::span<const FailureModel> models,
                          EvaluatorWorkspace& ws, std::span<double> out, bool validate = true,
                          EvalMath math = EvalMath::exact) const;

  /// The block size the budget sweeps use on a graph of `task_count` tasks
  /// under `models`: as many members as keep a block's per-member lane
  /// state (2 task_count doubles per distinct lambda > 0) within 96 KiB,
  /// at least 1 and at most 16.
  static std::size_t block_size(std::size_t task_count, std::span<const FailureModel> models);

 private:
  /// The pass loop: E[makespan] of member b under models[m] into
  /// totals[b * models.size() + m] and, when `full` is non-empty, E[X_i]
  /// by position into the same slot of `full`. The algorithm is a template
  /// argument so that each instantiation compiles only its own lane step:
  /// exact's machine code carries nothing of fast's.
  template <EvalMath kMath>
  void run(const ScheduleBlock& block, std::span<const FailureModel> models,
           EvaluatorWorkspace& ws, std::span<double> totals, std::span<Evaluation> full) const;

  /// The fast lane step of one member in one pass: accumulates the pass's
  /// `records` staged records, the first at position `first`, into the
  /// member's track by the prefix-product recurrence; `flag` is the
  /// member's flags by position. Returns its memo misses.
  static std::size_t recurrence_step(EvaluatorWorkspace& ws, EvaluatorWorkspace::Lane& lane,
                                     const std::uint8_t* flag, double base, double* accum,
                                     std::size_t first, std::size_t records);

  const TaskGraph* graph_;
  FailureModel model_;
};

}  // namespace fpsched
