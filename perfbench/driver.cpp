// perfbench_driver — the in-process half of the repository benchmark.
//
// run.py owns the workloads, seeds, the HTTP load generator and the
// report; this binary times the fpsched library from outside, around
// calls into its public functions, and prints one JSON object on stdout.
//
//   perfbench_driver info
//   perfbench_driver measure   --runs FILE
//   perfbench_driver reference --runs FILE --out DIR
//   perfbench_driver replay    --runs FILE [--overhead-reps N] [--dedupe]
//                              [--ref-out DIR] [--obs-trace FILE] [--spans FILE]
//
// A runs file holds one experiment run per line, "<pass> <query>". The
// query uses the HTTP service's run parameters (experiment=fig2&stride=16&
// seed=7, parsed by service::parse_job_request, so batch runs and served
// runs mean the same thing) plus an optional shard=I/N. Lines sharing a
// pass number form one timed pass.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "dag/linearize.hpp"
#include "engine/engine.hpp"
#include "engine/experiment.hpp"
#include "engine/instance_cache.hpp"
#include "engine/result_sink.hpp"
#include "heuristics/checkpoint_strategy.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "support/error.hpp"

namespace {

using namespace fpsched;
namespace eng = fpsched::engine;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// A numeric field of /proc/self/status ("VmHWM:", "Threads:"); 0 if absent.
long proc_status_value(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  }
  return 0;
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

/// 64-bit FNV-1a over a byte stream (the record digest run.py compares).
std::string digest_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- Runs -------------------------------------------------------------

struct Run {
  int pass = 0;
  std::string experiment;
  eng::FigureOptions options;
  eng::ShardSpec shard;
};

std::vector<Run> read_runs(const std::string& path) {
  std::ifstream in(path);
  ensure(in.good(), "cannot read runs file '" + path + "'");
  std::vector<Run> runs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Run run;
    std::string query;
    fields >> run.pass >> query;
    ensure(!query.empty(), "malformed runs line '" + line + "'");
    std::map<std::string, std::string> params;
    std::istringstream items(query);
    std::string item;
    while (std::getline(items, item, '&')) {
      const std::size_t eq = item.find('=');
      ensure(eq != std::string::npos, "malformed query item '" + item + "'");
      params[item.substr(0, eq)] = item.substr(eq + 1);
    }
    if (const auto it = params.find("shard"); it != params.end()) {
      run.shard = eng::ShardSpec::parse(it->second);
      params.erase(it);
    }
    service::JobRequest request = service::parse_job_request(params);
    run.experiment = request.experiment;
    run.options = request.options;
    runs.push_back(std::move(run));
  }
  ensure(!runs.empty(), "runs file '" + path + "' is empty");
  return runs;
}

std::vector<std::vector<const Run*>> group_passes(const std::vector<Run>& runs) {
  std::map<int, std::vector<const Run*>> by_pass;
  for (const Run& run : runs) by_pass[run.pass].push_back(&run);
  std::vector<std::vector<const Run*>> passes;
  for (auto& [pass, members] : by_pass) passes.push_back(std::move(members));
  return passes;
}

/// NdjsonSink into memory: the bytes, the first record's arrival, and
/// (optionally) a copy of every ScenarioResult for verification.
class CaptureSink : public eng::ResultSink {
 public:
  explicit CaptureSink(bool keep_results) : keep_results_(keep_results) {}

  void record(const eng::ResultRecord& record) override {
    if (first_record_ns_ == 0) first_record_ns_ = now_ns();
    ndjson_.record(record);
    ++records_;
    if (keep_results_) results_.push_back(record.result);
  }

  std::string bytes() const { return stream_.str(); }
  std::size_t records() const { return records_; }
  std::uint64_t first_record_ns() const { return first_record_ns_; }
  std::vector<eng::ScenarioResult>& results() { return results_; }

 private:
  std::ostringstream stream_;
  eng::NdjsonSink ndjson_{stream_};
  bool keep_results_;
  std::size_t records_ = 0;
  std::uint64_t first_record_ns_ = 0;
  std::vector<eng::ScenarioResult> results_;
};

void run_once(const Run& run, CaptureSink& sink) {
  const eng::Experiment& experiment = eng::ExperimentRegistry::global().find(run.experiment);
  eng::ResultSink* sinks[] = {&sink};
  eng::run_experiment(experiment, run.options, sinks, nullptr, run.shard);
}

std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::MetricsRegistry::global().counter_values()) {
    out[name] = value;
  }
  return out;
}

void add_counter_delta(std::map<std::string, std::uint64_t>& total,
                       const std::map<std::string, std::uint64_t>& before,
                       const std::map<std::string, std::uint64_t>& after) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t start = it == before.end() ? 0 : it->second;
    if (value > start) total[name] += value - start;
  }
}

std::string counters_json(const std::map<std::string, std::uint64_t>& counters) {
  std::string out = "{";
  for (const auto& [name, value] : counters) {
    if (out.size() > 1) out += ',';
    out += eng::json_quote(name) + ":" + std::to_string(value);
  }
  return out + "}";
}

double peak_rss_mb() { return static_cast<double>(proc_status_value("VmHWM:")) / 1024.0; }

std::int64_t emitter_buffered_peak() {
  return obs::MetricsRegistry::global()
      .gauge("fpsched_engine_emitter_buffered_peak",
             "high-water mark of out-of-order results held by the emitter")
      .value();
}

/// Samples the process's thread count every millisecond while alive;
/// peak() excludes the sampler's own thread.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { loop(); }) {}
  ~ThreadSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  long peak() const { return peak_.load() - 1; }

 private:
  void loop() {
    while (!stop_.load()) {
      peak_.store(std::max(peak_.load(), proc_status_value("Threads:")));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<long> peak_{0};
  std::thread thread_;
};

// --- Verification -----------------------------------------------------

CkptStrategy strategy_of(const eng::ScenarioPolicy& policy) {
  return policy.kind == eng::ScenarioPolicy::Kind::fixed_heuristic ? policy.heuristic.checkpointing
                                                                    : policy.strategy;
}

/// Re-derives a record's outcome from its own claim: the schedule its
/// (linearization, best_budget) names, rebuilt from a fresh instance, must
/// evaluate to the recorded expected makespan and ratio bit for bit.
bool record_consistent(const eng::ScenarioResult& result, EvaluatorWorkspace& workspace) {
  const eng::ScenarioSpec& spec = result.spec;
  if (spec.policy.kind == eng::ScenarioPolicy::Kind::simulated_best) return false;
  if (spec.policy.kind == eng::ScenarioPolicy::Kind::fixed_heuristic &&
      result.linearization != spec.policy.heuristic.linearization) {
    return false;
  }
  const TaskGraph graph = spec.instantiate();
  const std::vector<VertexId> order =
      linearize(graph.dag(), graph.weights_view(), result.linearization, spec.linearize);
  const Schedule schedule =
      make_heuristic_schedule(graph, order, strategy_of(spec.policy), result.best_budget);
  const Evaluation evaluation = ScheduleEvaluator(graph, spec.model).evaluate(schedule, workspace);
  return same_bits(evaluation.expected_makespan, result.evaluation.expected_makespan) &&
         same_bits(evaluation.ratio, result.evaluation.ratio);
}

std::size_t count_inconsistent(const std::vector<eng::ScenarioResult>& results) {
  std::atomic<std::size_t> bad{0};
  const eng::ExperimentEngine engine;
  engine.for_each(results.size(), [&](std::size_t i, EvaluatorWorkspace& workspace) {
    if (!record_consistent(results[i], workspace)) bad.fetch_add(1);
  });
  return bad.load();
}

std::size_t planned_records(const Run& run) {
  const eng::FigurePlan plan =
      eng::ExperimentRegistry::global().find(run.experiment).build(run.options);
  const std::size_t total = eng::flatten_plan(plan).size();
  const auto [begin, end] = eng::shard_range(total, run.shard);
  return end - begin;
}

// --- measure ----------------------------------------------------------

int cmd_measure(const std::vector<Run>& runs) {
  const auto passes = group_passes(runs);
  eng::ExperimentRegistry& registry = eng::ExperimentRegistry::global();

  // Set-up: plan construction (registry lookup, build, flatten) of the
  // first pass, repeated for a 100 ms window before every pass. One sample
  // is the window's mean: on a shared host this microsecond call switches
  // between a fast and a ~1.5x slower state every 0.1-1 s, so a single
  // repetition, or a window's median or minimum, jumps between the two
  // while the mean moves smoothly with the slow share. run.py reports the
  // median of the samples.
  const auto plan_pass = [&] {
    std::size_t scenarios = 0;
    for (const Run* run : passes.front()) {
      const eng::FigurePlan plan = registry.find(run->experiment).build(run->options);
      scenarios += eng::flatten_plan(plan).size();
    }
    ensure(scenarios > 0, "a pass plans no scenarios");
  };
  constexpr std::uint64_t kSetupWindowNs = 100'000'000;
  constexpr std::size_t kMinSetupReps = 15;
  std::vector<double> setup_samples;
  std::size_t setup_reps = 0;

  std::vector<double> wall, cpu, first_record;
  std::vector<std::string> digests;
  std::map<std::string, std::uint64_t> counters;
  std::size_t records = 0, missing = 0, inconsistent = 0;
  for (const auto& pass : passes) {
    std::size_t reps = 0;
    const std::uint64_t window_start = now_ns();
    std::uint64_t window_end = window_start;
    while (reps < kMinSetupReps || window_end - window_start < kSetupWindowNs) {
      plan_pass();
      ++reps;
      window_end = now_ns();
    }
    setup_reps += reps;
    setup_samples.push_back(seconds_between(window_start, window_end) / static_cast<double>(reps));
    std::vector<std::unique_ptr<CaptureSink>> sinks;
    const auto before = counter_snapshot();
    const double cpu_start = cpu_seconds();
    const std::uint64_t start = now_ns();
    for (const Run* run : pass) {
      sinks.push_back(std::make_unique<CaptureSink>(true));
      run_once(*run, *sinks.back());
    }
    const std::uint64_t end = now_ns();
    cpu.push_back(cpu_seconds() - cpu_start);
    wall.push_back(seconds_between(start, end));
    first_record.push_back(seconds_between(start, sinks.front()->first_record_ns()));
    add_counter_delta(counters, before, counter_snapshot());

    // Outside the timed window: digest, completeness and self-consistency.
    std::string bytes;
    for (std::size_t i = 0; i < pass.size(); ++i) {
      bytes += sinks[i]->bytes();
      records += sinks[i]->records();
      const std::size_t planned = planned_records(*pass[i]);
      if (sinks[i]->records() < planned) missing += planned - sinks[i]->records();
      inconsistent += count_inconsistent(sinks[i]->results());
    }
    digests.push_back(digest_hex(bytes));
  }

  std::string digest_list = "[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    digest_list += (i ? ",\"" : "\"") + digests[i] + "\"";
  }
  digest_list += "]";
  std::cout << "{\"wall_s\":" << json_list(wall) << ",\"cpu_s\":" << json_list(cpu)
            << ",\"first_record_s\":" << json_list(first_record)
            << ",\"setup_s\":" << json_list(setup_samples) << ",\"setup_reps\":" << setup_reps
            << ",\"digests\":" << digest_list
            << ",\"records\":" << records << ",\"missing\":" << missing
            << ",\"inconsistent\":" << inconsistent
            << ",\"peak_rss_mb\":" << json_number(peak_rss_mb())
            << ",\"counters\":" << counters_json(counters) << "}\n";
  return 0;
}

// --- reference --------------------------------------------------------

/// Runs every line once and writes its NDJSON stream to DIR/<line>.ndjson.
std::vector<std::size_t> write_references(const std::vector<Run>& runs, const std::string& dir,
                                          std::vector<eng::ScenarioResult>* results) {
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    CaptureSink sink(results != nullptr);
    run_once(runs[i], sink);
    if (!dir.empty()) {
      const std::string path = dir + "/" + std::to_string(i) + ".ndjson";
      std::ofstream out(path, std::ios::binary);
      out << sink.bytes();
      ensure(out.good(), "cannot write '" + path + "'");
    }
    counts.push_back(sink.records());
    if (results) {
      for (eng::ScenarioResult& result : sink.results()) results->push_back(std::move(result));
    }
  }
  return counts;
}

std::string count_list(const std::vector<std::size_t>& counts) {
  std::string out = "[";
  for (std::size_t i = 0; i < counts.size(); ++i) out += (i ? "," : "") + std::to_string(counts[i]);
  return out + "]";
}

int cmd_reference(const std::vector<Run>& runs, const std::string& dir) {
  ensure(!dir.empty(), "reference needs --out DIR");
  std::cout << "{\"records\":" << count_list(write_references(runs, dir, nullptr)) << "}\n";
  return 0;
}

// --- replay -----------------------------------------------------------

enum Layer : std::uint8_t { kScenario, kGenerate, kLinearize, kSchedule, kEvaluate, kEncode };
constexpr std::array<const char*, 6> kLayerNames{"engine.scenario",     "workflows.generate",
                                                 "dag.linearize",       "heuristics.schedule",
                                                 "core.evaluate",       "engine.encode"};

struct Span {
  Layer layer = kScenario;
  std::int32_t parent = -1;  // index into the same worker's span list
  std::uint32_t scenario = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One engine worker's replay state: its spans, its instance memo (as the
/// engine keeps one per worker) and its counts.
struct WorkerState {
  std::vector<Span> spans;
  std::vector<std::unique_ptr<eng::InstanceCache>> caches;
  std::vector<std::array<bool, 3>> linearized;  // per cache: orders computed so far
  std::uint64_t evaluations = 0;
  std::uint64_t pairs = 0;
  std::uint64_t candidates = 0;
  std::uint64_t instances = 0;
  std::uint64_t linearizations = 0;
};

class SpanScope {
 public:
  SpanScope(WorkerState& worker, Layer layer, std::int32_t parent, std::uint32_t scenario)
      : worker_(worker), index_(static_cast<std::int32_t>(worker.spans.size())) {
    worker.spans.push_back({layer, parent, scenario, now_ns(), 0});
  }
  ~SpanScope() { worker_.spans[static_cast<std::size_t>(index_)].end_ns = now_ns(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int32_t index() const { return index_; }

 private:
  WorkerState& worker_;
  std::int32_t index_;
};

struct PlannedRecord {
  std::string experiment;
  std::string panel;
  eng::ScenarioSpec spec;
};

struct Outcome {
  Evaluation evaluation;
  std::size_t best_budget = 0;
};

/// One scenario through the public layer calls, mirroring the engine's
/// cached path: instance, linearization, per-budget schedule + expected
/// makespan, full evaluation of the winner, policy selection, encoding.
eng::ScenarioResult replay_scenario(const PlannedRecord& planned, std::uint32_t id,
                                    WorkerState& worker, EvaluatorWorkspace& workspace,
                                    std::string& line) {
  const eng::ScenarioSpec& spec = planned.spec;
  const SpanScope root(worker, kScenario, -1, id);
  const std::int32_t parent = root.index();

  const eng::InstanceKey key = eng::InstanceKey::of(spec);
  std::size_t slot = worker.caches.size();
  for (std::size_t i = worker.caches.size(); i-- > 0;) {
    if (worker.caches[i]->key() == key) {
      slot = i;
      break;
    }
  }
  if (slot == worker.caches.size()) {
    const SpanScope span(worker, kGenerate, parent, id);
    worker.caches.push_back(std::make_unique<eng::InstanceCache>(spec));
    worker.linearized.push_back({false, false, false});
    ++worker.instances;
  }
  eng::InstanceCache& cache = *worker.caches[slot];
  const TaskGraph& graph = cache.graph_for(spec.cost_model);
  const ScheduleEvaluator evaluator(graph, spec.model);
  const std::size_t n = graph.task_count();

  const auto run_heuristic = [&](LinearizeMethod method, CkptStrategy strategy) {
    bool& computed = worker.linearized[slot][static_cast<std::size_t>(method)];
    const std::vector<VertexId>* order = nullptr;
    if (!computed) {
      const SpanScope span(worker, kLinearize, parent, id);
      order = &cache.order(method);
      computed = true;
      ++worker.linearizations;
    } else {
      order = &cache.order(method);
    }
    // The sweep's budget grid: 1, 1+stride, ..., always ending at n-1.
    std::vector<std::size_t> budgets;
    if (!is_budgeted(strategy) || n < 2) {
      budgets.push_back(0);
    } else {
      for (std::size_t b = 1; b < n; b += spec.stride) budgets.push_back(b);
      if (budgets.back() != n - 1) budgets.push_back(n - 1);
    }
    Schedule best_schedule;
    double best_expected = 0.0;
    Outcome outcome;
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      Schedule schedule;
      {
        const SpanScope span(worker, kSchedule, parent, id);
        schedule = make_heuristic_schedule(graph, *order, strategy, budgets[i]);
      }
      double expected = 0.0;
      {
        const SpanScope span(worker, kEvaluate, parent, id);
        expected = evaluator.expected_makespan(schedule, workspace, /*validate=*/false);
      }
      ++worker.candidates;
      ++worker.evaluations;
      worker.pairs += n * (n + 1) / 2;
      if (i == 0 || expected < best_expected) {
        best_expected = expected;
        best_schedule = std::move(schedule);
        outcome.best_budget = is_budgeted(strategy) ? budgets[i] : best_schedule.checkpoint_count();
      }
    }
    {
      const SpanScope span(worker, kEvaluate, parent, id);
      outcome.evaluation = evaluator.evaluate(best_schedule, workspace);
    }
    ++worker.evaluations;
    worker.pairs += n * (n + 1) / 2;
    return outcome;
  };

  eng::ScenarioResult result;
  result.spec = spec;
  const eng::ScenarioPolicy& policy = spec.policy;
  if (policy.kind == eng::ScenarioPolicy::Kind::fixed_heuristic) {
    const Outcome outcome =
        run_heuristic(policy.heuristic.linearization, policy.heuristic.checkpointing);
    result.evaluation = outcome.evaluation;
    result.linearization = policy.heuristic.linearization;
    result.best_budget = outcome.best_budget;
  } else if (!is_budgeted(policy.strategy)) {
    const Outcome outcome = run_heuristic(LinearizeMethod::depth_first, policy.strategy);
    result.evaluation = outcome.evaluation;
    result.linearization = LinearizeMethod::depth_first;
    result.best_budget = outcome.best_budget;
  } else {
    double best = std::numeric_limits<double>::infinity();
    for (const LinearizeMethod method : all_linearize_methods()) {
      const Outcome outcome = run_heuristic(method, policy.strategy);
      if (outcome.evaluation.ratio < best) {
        best = outcome.evaluation.ratio;
        result.evaluation = outcome.evaluation;
        result.linearization = method;
        result.best_budget = outcome.best_budget;
      }
    }
  }
  {
    const SpanScope span(worker, kEncode, parent, id);
    line = eng::to_json({planned.experiment, planned.panel, result});
  }
  return result;
}

std::vector<PlannedRecord> plan_records(const std::vector<const Run*>& runs, bool dedupe) {
  std::vector<PlannedRecord> planned;
  std::set<std::string> seen;
  for (const Run* run : runs) {
    const eng::FigurePlan plan =
        eng::ExperimentRegistry::global().find(run->experiment).build(run->options);
    const std::vector<eng::PlannedScenario> flat = eng::flatten_plan(plan);
    const auto [begin, end] = eng::shard_range(flat.size(), run->shard);
    for (std::size_t i = begin; i < end; ++i) {
      if (dedupe && !seen.insert(eng::canonical_spec_string(flat[i].spec)).second) continue;
      planned.push_back({run->experiment, flat[i].panel, flat[i].spec});
    }
  }
  return planned;
}

struct PassTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

PassTiming timed_pass(const std::vector<const Run*>& pass, bool traced) {
  if (traced) obs::start_tracing();
  const double cpu_start = cpu_seconds();
  const std::uint64_t start = now_ns();
  for (const Run* run : pass) {
    CaptureSink sink(false);
    run_once(*run, sink);
  }
  const PassTiming timing{seconds_between(start, now_ns()), cpu_seconds() - cpu_start};
  if (traced) obs::stop_tracing();
  return timing;
}

void write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<WorkerState>>& workers) {
  std::ofstream out(path, std::ios::binary);
  out << "{\"layers\":[";
  for (std::size_t i = 0; i < kLayerNames.size(); ++i) {
    out << (i ? ",\"" : "\"") << kLayerNames[i] << "\"";
  }
  out << "],\"workers\":[";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    out << (w ? ",[" : "[");
    const auto& spans = workers[w]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? ",[" : "[") << static_cast<int>(s.layer) << ',' << s.parent << ',' << s.scenario
          << ',' << s.start_ns << ',' << s.end_ns << ']';
    }
    out << ']';
  }
  out << "]}\n";
  ensure(out.good(), "cannot write span file '" + path + "'");
}

int cmd_replay(const std::vector<Run>& runs, std::size_t overhead_reps, bool dedupe,
               const std::string& ref_out, const std::string& obs_trace_path,
               const std::string& spans_path) {
  const auto passes = group_passes(runs);
  const std::vector<const Run*>& pass = passes.front();

  // 1. Reference pass through run_experiment, untraced: the records the
  //    replay must reproduce, plus the counters it must agree with.
  std::vector<eng::ScenarioResult> reference;
  std::map<std::string, std::uint64_t> counters;
  PassTiming reference_timing;
  long threads_peak = 0;
  std::vector<std::size_t> reference_counts;
  {
    std::vector<Run> pass_runs;
    for (const Run* run : pass) pass_runs.push_back(*run);
    const ThreadSampler sampler;
    const auto before = counter_snapshot();
    const double cpu_start = cpu_seconds();
    const std::uint64_t start = now_ns();
    reference_counts = write_references(pass_runs, ref_out, &reference);
    reference_timing = {seconds_between(start, now_ns()), cpu_seconds() - cpu_start};
    add_counter_delta(counters, before, counter_snapshot());
    threads_peak = sampler.peak();
  }

  // 2. Tracing overhead: the same pass with obs tracing on and off,
  //    alternating; the last traced pass's program spans are exported.
  std::vector<double> untraced{reference_timing.wall_s};
  std::vector<double> traced;
  for (std::size_t rep = 0; rep < overhead_reps; ++rep) {
    traced.push_back(timed_pass(pass, true).wall_s);
    if (rep + 1 < overhead_reps) untraced.push_back(timed_pass(pass, false).wall_s);
  }
  if (!obs_trace_path.empty() && overhead_reps > 0) obs::write_trace_file(obs_trace_path);

  // 3. Replay through the layer calls on the engine's workers.
  const std::vector<PlannedRecord> planned = plan_records(pass, dedupe);
  std::map<std::string, const eng::ScenarioResult*> by_spec;
  for (const eng::ScenarioResult& result : reference) {
    by_spec.emplace(eng::canonical_spec_string(result.spec), &result);
  }
  std::vector<eng::ScenarioResult> replayed(planned.size());
  std::vector<std::string> lines(planned.size());
  std::mutex workers_mutex;
  std::map<const EvaluatorWorkspace*, std::size_t> worker_index;
  std::vector<std::unique_ptr<WorkerState>> workers;
  const eng::ExperimentEngine engine;
  const auto replay_before = counter_snapshot();
  const std::uint64_t replay_start = now_ns();
  engine.for_each(planned.size(), [&](std::size_t i, EvaluatorWorkspace& workspace) {
    WorkerState* worker = nullptr;
    {
      const std::lock_guard<std::mutex> lock(workers_mutex);
      const auto [it, inserted] = worker_index.emplace(&workspace, workers.size());
      if (inserted) workers.push_back(std::make_unique<WorkerState>());
      worker = workers[it->second].get();
    }
    replayed[i] = replay_scenario(planned[i], static_cast<std::uint32_t>(i), *worker, workspace,
                                  lines[i]);
  });
  const double replay_wall = seconds_between(replay_start, now_ns());
  std::map<std::string, std::uint64_t> replay_counters;
  add_counter_delta(replay_counters, replay_before, counter_snapshot());

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    const auto it = by_spec.find(eng::canonical_spec_string(planned[i].spec));
    const bool same = it != by_spec.end() &&
                      it->second->linearization == replayed[i].linearization &&
                      it->second->best_budget == replayed[i].best_budget &&
                      same_bits(it->second->evaluation.expected_makespan,
                                replayed[i].evaluation.expected_makespan);
    if (!same) ++mismatches;
  }

  // Per-layer totals and self time (duration minus the child spans).
  std::array<double, kLayerNames.size()> total_s{}, self_s{};
  std::array<std::uint64_t, kLayerNames.size()> spans{};
  double scenario_s_max = 0.0;
  std::uint64_t evaluations = 0, pairs = 0, candidates = 0, instances = 0, linearizations = 0;
  for (const auto& worker : workers) {
    std::vector<double> child_s(worker->spans.size(), 0.0);
    for (const Span& s : worker->spans) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += seconds_between(s.start_ns, s.end_ns);
      }
    }
    for (std::size_t i = 0; i < worker->spans.size(); ++i) {
      const Span& s = worker->spans[i];
      const double duration = seconds_between(s.start_ns, s.end_ns);
      total_s[s.layer] += duration;
      self_s[s.layer] += duration - child_s[i];
      ++spans[s.layer];
      if (s.layer == kScenario) scenario_s_max = std::max(scenario_s_max, duration);
    }
    evaluations += worker->evaluations;
    pairs += worker->pairs;
    candidates += worker->candidates;
    instances += worker->instances;
    linearizations += worker->linearizations;
  }
  if (!spans_path.empty()) write_spans(spans_path, workers);

  std::string layers = "{";
  for (std::size_t l = 0; l < kLayerNames.size(); ++l) {
    if (l) layers += ',';
    layers += std::string("\"") + kLayerNames[l] + "\":{\"spans\":" + std::to_string(spans[l]) +
              ",\"total_s\":" + json_number(total_s[l]) + ",\"self_s\":" + json_number(self_s[l]) +
              "}";
  }
  layers += "}";
  std::cout << "{\"reference\":{\"wall_s\":" << json_number(reference_timing.wall_s)
            << ",\"cpu_s\":" << json_number(reference_timing.cpu_s)
            << ",\"records\":" << count_list(reference_counts)
            << ",\"threads_peak\":" << threads_peak
            << ",\"emitter_buffered_peak\":" << emitter_buffered_peak()
            << ",\"counters\":" << counters_json(counters) << "},\"overhead\":{\"untraced_s\":"
            << json_list(untraced) << ",\"traced_s\":" << json_list(traced)
            << "},\"replay\":{\"wall_s\":" << json_number(replay_wall)
            << ",\"scenarios\":" << planned.size() << ",\"mismatches\":" << mismatches
            << ",\"evaluations\":" << evaluations << ",\"pairs\":" << pairs
            << ",\"candidates\":" << candidates << ",\"instances\":" << instances
            << ",\"linearizations\":" << linearizations
            << ",\"scenario_s_max\":" << json_number(scenario_s_max) << ",\"layers\":" << layers
            << ",\"counters\":" << counters_json(replay_counters)
            << "},\"peak_rss_mb\":" << json_number(peak_rss_mb()) << "}\n";
  return 0;
}

int cmd_info() {
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << "{\"compiler\":" << eng::json_quote(compiler)
            << ",\"build_type\":" << eng::json_quote(PERFBENCH_BUILD_TYPE)
            << ",\"hardware_threads\":" << std::thread::hardware_concurrency() << "}\n";
  return 0;
}

std::string option_value(int argc, char** argv, const std::string& name,
                         const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& name) {
  for (int i = 2; i < argc; ++i) {
    if (argv[i] == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver info|measure|reference|replay [options]\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "info") return cmd_info();
    const std::vector<Run> runs = read_runs(option_value(argc, argv, "--runs"));
    if (command == "measure") {
      return cmd_measure(runs);
    }
    if (command == "reference") return cmd_reference(runs, option_value(argc, argv, "--out"));
    if (command == "replay") {
      return cmd_replay(runs, std::stoul(option_value(argc, argv, "--overhead-reps", "0")),
                        has_flag(argc, argv, "--dedupe"), option_value(argc, argv, "--ref-out"),
                        option_value(argc, argv, "--obs-trace"),
                        option_value(argc, argv, "--spans"));
    }
    std::cerr << "unknown command '" << command << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
