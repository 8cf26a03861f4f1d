#include "engine/scenario.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"
#include "support/table.hpp"

namespace fpsched::engine {

ScenarioPolicy ScenarioPolicy::fixed(HeuristicSpec spec) {
  ScenarioPolicy policy;
  policy.kind = Kind::fixed_heuristic;
  policy.heuristic = spec;
  return policy;
}

ScenarioPolicy ScenarioPolicy::best_lin(CkptStrategy strategy) {
  ScenarioPolicy policy;
  policy.kind = Kind::best_linearization;
  policy.strategy = strategy;
  return policy;
}

ScenarioPolicy ScenarioPolicy::simulated(SimDistribution distribution, double shape,
                                         std::size_t trials, std::uint64_t seed) {
  ScenarioPolicy policy;
  policy.kind = Kind::simulated_best;
  policy.sim_distribution = distribution;
  policy.sim_shape = shape;
  policy.sim_trials = trials;
  policy.sim_seed = seed;
  return policy;
}

std::string ScenarioPolicy::name() const {
  switch (kind) {
    case Kind::fixed_heuristic: return heuristic.name();
    case Kind::best_linearization: return to_string(strategy);
    case Kind::simulated_best:
      switch (sim_distribution) {
        case SimDistribution::analytic: return "BestEV";
        case SimDistribution::exponential: return "Sim-Exp";
        case SimDistribution::weibull: return "Sim-Weibull-" + format_double(sim_shape, 1);
      }
  }
  return "?";
}

TaskGraph ScenarioSpec::instantiate() const {
  GeneratorConfig config;
  config.task_count = task_count;
  config.seed = workflow_seed + task_count;  // distinct instance per size, reproducible
  config.weight_cv = weight_cv;
  config.cost_model = cost_model;
  return generate_workflow(workflow, config);
}

std::string canonical_spec_string(const ScenarioSpec& spec) {
  // Every field, unconditionally (unlike the record JSON, which appends
  // sim fields only for simulated policies to preserve historical bytes):
  // the key must distinguish specs even on fields a given policy kind
  // ignores today, so a future kind that starts reading them cannot
  // alias a stale cache entry.
  std::string out = "spec/1";
  const auto field = [&out](std::string_view name, const std::string& value) {
    out += ' ';
    out += name;
    out += '=';
    out += value;
  };
  const auto num = [](auto value) { return std::to_string(static_cast<std::uint64_t>(value)); };
  field("wf", num(spec.workflow));
  field("n", num(spec.task_count));
  field("lambda", format_double_full(spec.model.lambda()));
  field("downtime", format_double_full(spec.model.downtime()));
  field("cost_kind", num(spec.cost_model.kind));
  field("cost_param", format_double_full(spec.cost_model.parameter));
  field("policy", num(spec.policy.kind));
  field("lin", num(spec.policy.heuristic.linearization));
  field("ckpt", num(spec.policy.heuristic.checkpointing));
  field("strategy", num(spec.policy.strategy));
  field("sim_dist", num(spec.policy.sim_distribution));
  field("sim_shape", format_double_full(spec.policy.sim_shape));
  field("sim_trials", num(spec.policy.sim_trials));
  field("sim_seed", num(spec.policy.sim_seed));
  field("seed", num(spec.workflow_seed));
  field("cv", format_double_full(spec.weight_cv));
  field("stride", num(spec.stride));
  field("outweight", num(spec.linearize.outweight));
  field("lin_seed", num(spec.linearize.seed));
  field("index", num(spec.scenario_index));
  // The evaluator algorithm comes last, in the spelling the keys had
  // before it was a spec field, so existing disk caches stay valid. Fast
  // keys are spelled `math=fast-recurrence/2`: fast records carry an
  // "eval_math" field since that spelling, and no earlier build wrote it
  // (the recurrence wrote `math=fast-recurrence`, the polynomial kernels
  // before it `math=fast` and `math=fast kernel=...`), so an old
  // --cache-dir never serves a fast body without the field.
  field("math", spec.eval_math == EvalMath::exact ? "exact" : "fast-recurrence/2");
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ScenarioSpec::label() const {
  std::ostringstream os;
  os << to_string(workflow) << " n=" << task_count << " lambda=" << model.lambda() << " "
     << policy.name();
  return os.str();
}

std::string to_string(GridAxis axis) {
  switch (axis) {
    case GridAxis::task_count: return "number of tasks";
    case GridAxis::lambda: return "lambda";
    case GridAxis::downtime: return "downtime";
  }
  return "?";
}

void ScenarioGrid::validate() const {
  ensure(!xs.empty(), "scenario grid needs at least one axis point");
  ensure(!policies.empty(), "scenario grid needs at least one policy");
  ensure(base.stride >= 1, "scenario grid stride must be >= 1");
  if (axis != GridAxis::task_count) return;
  // Past 2^53 a double does not hold every integer, so a point there
  // could name another size than the one asked for.
  for (const double x : xs) {
    ensure(x >= 1.0 && x <= 0x1p53 && x == std::floor(x),
           "task-count points must be whole numbers in [1, 2^53]");
  }
}

std::vector<ScenarioSpec> ScenarioGrid::enumerate() const {
  validate();
  std::vector<ScenarioSpec> specs;
  specs.reserve(scenario_count());
  for (const double x : xs) {
    ScenarioSpec spec = base;
    switch (axis) {
      case GridAxis::task_count: spec.task_count = static_cast<std::size_t>(x); break;
      case GridAxis::lambda: spec.model = FailureModel(x, base.model.downtime()); break;
      case GridAxis::downtime: spec.model = FailureModel(base.model.lambda(), x); break;
    }
    for (const ScenarioPolicy& policy : policies) {
      spec.policy = policy;
      spec.scenario_index = specs.size();
      specs.push_back(spec);
    }
  }
  return specs;
}

}  // namespace fpsched::engine
