// Micro-benchmark for the Theorem-3 evaluation hot path, emitting
// machine-readable JSON so the bench trajectory is tracked across PRs
// (`BENCH_evaluator.json`: ns/eval by n, strategy and --math algorithm;
// tools/check_bench_schema.py validates the schema in CI).
//
//   $ perf_evaluator --quick
//   $ perf_evaluator --sizes 100,200,400 --repeats 5
//
// Strategies:
//   serial      the optimized evaluator (the sweep inner loop)
//   algorithm1  the literal O(n^4) Algorithm-1 transcription (small n
//               only — it exists as an executable specification)
//
// The serial strategy runs once per --math algorithm (exact = one exp
// per (k, i) record, fast = the prefix-product recurrence; see
// core/evaluator.hpp). Noise handling: every measurement is
// `--repeats` independent samples of at least --min-time-ms each;
// ns_per_eval is the median sample (robust against one preempted run)
// and ns_per_eval_min the fastest (the machine's attainable floor).
//
// Dependency-free by design (hand-rolled steady_clock timing, no
// google-benchmark), so the bench always builds and its JSON is always
// producible in CI. Every fast measurement asserts 1e-10 relative
// agreement with exact — a perf run that silently diverged would be
// worthless.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/evaluator_naive.hpp"
#include "dag/linearize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workflows/generator.hpp"

using namespace fpsched;

namespace {

struct Fixture {
  TaskGraph graph;
  FailureModel model{1e-3, 0.0};
  Schedule schedule;

  explicit Fixture(std::size_t n)
      : graph(generate_cybershake({.task_count = n, .seed = 5,
                                   .cost_model = CostModel::proportional(0.1)})) {
    schedule = make_schedule(linearize(graph.dag(), graph.weights(),
                                       LinearizeMethod::depth_first));
    for (VertexId v = 0; v < graph.task_count(); v += 3) schedule.checkpointed[v] = 1;
  }
};

struct BenchRow {
  std::size_t n = 0;
  std::string strategy;
  std::string math = "exact";
  std::size_t threads = 1;
  double ns_per_eval = 0.0;      // median over the repeats
  double ns_per_eval_min = 0.0;  // fastest repeat
  std::size_t evals = 0;         // total across all repeats
  std::size_t repeats = 0;
  double expected_makespan = 0.0;

  /// Instance-scale provenance ("generate"/"linearize" rows only): which
  /// workflow was instantiated, its edge count, the bytes the frozen
  /// instance holds, and the process peak RSS right after the row ran.
  struct InstanceInfo {
    std::string workflow;
    std::size_t edges = 0;
    std::size_t instance_bytes = 0;
    double peak_rss_mb = 0.0;
  };
  std::optional<InstanceInfo> instance;
};

/// Lowercased workflow tag ("genome"), matching the schema/CLI spelling
/// rather than the display name to_string produces ("Genome").
std::string workflow_tag(WorkflowKind kind) {
  std::string tag = to_string(kind);
  std::transform(tag.begin(), tag.end(), tag.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return tag;
}

/// Process peak resident set in MB (ru_maxrss is KB on Linux).
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Measurement {
  double median_ns = 0.0;
  double min_ns = 0.0;
  std::size_t evals = 0;
};

/// One sample: calls `eval` until `min_time_ms` elapsed (at least once,
/// at most `max_evals` calls) and returns mean ns/eval.
template <typename Eval>
double sample(double min_time_ms, std::size_t max_evals, std::size_t& evals, double& value,
              const Eval& eval) {
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  std::size_t count = 0;
  double elapsed_ns = 0.0;
  do {
    value = eval();
    ++count;
    elapsed_ns = std::chrono::duration<double, std::nano>(clock::now() - start).count();
  } while (elapsed_ns < min_time_ms * 1e6 && count < max_evals);
  evals += count;
  return elapsed_ns / static_cast<double>(count);
}

/// `repeats` independent samples; median and min of the per-sample means.
template <typename Eval>
Measurement measure(std::size_t repeats, double min_time_ms, std::size_t max_evals,
                    double& value, const Eval& eval) {
  value = eval();  // warm-up (touches every scratch buffer once)
  Measurement out;
  std::vector<double> samples(repeats);
  for (double& s : samples) s = sample(min_time_ms, max_evals, out.evals, value, eval);
  std::sort(samples.begin(), samples.end());
  out.min_ns = samples.front();
  const std::size_t mid = repeats / 2;
  out.median_ns =
      repeats % 2 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
  return out;
}

/// Round-trip precision, with non-finite values quoted ("inf"/"nan") so
/// the output stays parseable JSON even on failure-dominated fixtures —
/// same convention as the NDJSON record sink.
std::string json_number(double value) {
  std::string text = format_double_full(value);
  // Built with append rather than `"\"" + ... + "\""`: the rvalue
  // string::insert that operator+ chain lowers to trips GCC 12's
  // -Wrestrict false positive (GCC PR105651).
  if (!std::isfinite(value)) {
    text.insert(text.begin(), '"');
    text.push_back('"');
  }
  return text;
}

std::string to_json(const std::vector<BenchRow>& rows) {
  std::string out = "{\"bench\":\"evaluator\",\"compiler\":\"" + std::string(__VERSION__) +
                    "\",\"threads_available\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"fixture\":{\"workflow\":\"cybershake\","
                    "\"seed\":5,\"lambda\":0.001,\"cost_model\":\"proportional(0.1)\","
                    "\"linearization\":\"DF\",\"checkpoint_every\":3},\"results\":[";
  bool first = true;
  for (const BenchRow& row : rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"n\":" + std::to_string(row.n) + ",\"strategy\":\"" + row.strategy +
           "\",\"math\":\"" + row.math + "\",\"threads\":" + std::to_string(row.threads) +
           ",\"ns_per_eval\":" + json_number(row.ns_per_eval) +
           ",\"ns_per_eval_min\":" + json_number(row.ns_per_eval_min) +
           ",\"evals\":" + std::to_string(row.evals) +
           ",\"repeats\":" + std::to_string(row.repeats) +
           ",\"expected_makespan\":" + json_number(row.expected_makespan);
    if (row.instance) {
      out += ",\"workflow\":\"" + row.instance->workflow +
             "\",\"edges\":" + std::to_string(row.instance->edges) +
             ",\"instance_bytes\":" + std::to_string(row.instance->instance_bytes) +
             ",\"peak_rss_mb\":" + json_number(row.instance->peak_rss_mb);
    }
    out += "}";
  }
  out += "],\"peak_rss_mb\":" + json_number(peak_rss_mb()) + "}";
  return out;
}

void log_row(const BenchRow& row, double baseline_ns) {
  std::cerr << "n=" << row.n << " " << row.strategy << " [" << row.math << "]: " << row.ns_per_eval / 1e3 << " us/eval (median)";
  if (baseline_ns > 0.0 && baseline_ns != row.ns_per_eval) {
    std::cerr << " (" << baseline_ns / row.ns_per_eval << "x vs exact serial)";
  }
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_evaluator — Theorem-3 evaluation micro-bench, JSON output "
                "(optimized evaluator vs Algorithm 1, exact vs fast evaluator algorithms).");
  cli.add_option("sizes", "50,100,200,400,800", "task-count grid (CyberShake fixture)");
  cli.add_option("math", "exact,fast", "evaluator algorithms to measure");
  cli.add_option("naive-max", "100",
                 "largest n for the O(n^4) Algorithm-1 reference (0 disables it)");
  cli.add_option("min-time-ms", "200", "minimum sampling time per repeat");
  cli.add_option("repeats", "3", "independent samples per measurement (median reported)");
  cli.add_option("max-evals", "10000", "hard cap on evaluations per repeat");
  cli.add_option("out", "BENCH_evaluator.json", "output JSON path (empty = stdout only)");
  cli.add_option("instance-sizes", "10000",
                 "task counts for the generate/linearize instance-scale rows (empty disables "
                 "them)");
  cli.add_option("instance-workflow", "genome",
                 "workflow the instance-scale rows instantiate (montage|ligo|cybershake|"
                 "genome)");
  cli.add_option("max-instance-seconds", "0",
                 "budget: fail when one generate + linearize(DF,BF,RF) pass (fastest repeat) "
                 "takes longer than this many seconds (0 = no budget)");
  cli.add_option("max-instance-rss-mb", "0",
                 "budget: fail when process peak RSS exceeds this after the instance rows "
                 "(0 = no budget)");
  cli.add_flag("instance-only", "run only the instance-scale rows (skip evaluator strategies)");
  cli.add_flag("quick", "small sizes + short sampling for a smoke run");
  cli.add_option("trace", "",
                 "write a chrome://tracing JSON of the run's spans to this file");
  cli.add_flag("stats", "print the telemetry registry as JSON to stderr after the run");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string trace_path = cli.get_string("trace");
    if (!trace_path.empty()) obs::start_tracing();
    std::vector<std::size_t> sizes;
    for (const std::string& item : cli.get_string_list("sizes")) {
      sizes.push_back(parse_count(item, "option --sizes", 1));
    }
    std::vector<EvalMath> backends;
    for (const std::string& name : cli.get_string_list("math")) {
      backends.push_back(parse_eval_math(name));
    }
    if (backends.empty()) throw InvalidArgument("option --math: need at least one algorithm");
    std::size_t naive_max = cli.get_count("naive-max");
    double min_time_ms = cli.get_double("min-time-ms");
    const std::size_t repeats = cli.get_count("repeats", 1);
    std::size_t max_evals = cli.get_count("max-evals", 1);
    if (cli.get_flag("quick")) {
      sizes = {50, 100};
      min_time_ms = 20.0;
      naive_max = std::min<std::size_t>(naive_max, 50);
    }

    std::vector<std::size_t> instance_sizes;
    if (!cli.get_string("instance-sizes").empty()) {
      for (const std::string& item : cli.get_string_list("instance-sizes")) {
        instance_sizes.push_back(parse_count(item, "option --instance-sizes", 1));
      }
    }
    WorkflowKind instance_kind = WorkflowKind::genome;
    {
      const std::string name = cli.get_string("instance-workflow");
      bool known = false;
      for (const WorkflowKind kind : all_workflow_kinds()) {
        if (workflow_tag(kind) == name) {
          instance_kind = kind;
          known = true;
        }
      }
      if (!known) {
        throw InvalidArgument("option --instance-workflow: unknown workflow '" + name + "'");
      }
    }
    const double max_instance_seconds = cli.get_double("max-instance-seconds");
    const double max_instance_rss_mb = cli.get_double("max-instance-rss-mb");
    if (cli.get_flag("instance-only")) sizes.clear();

    std::vector<BenchRow> rows;
    for (const std::size_t n : sizes) {
      const Fixture fixture(n);
      const ScheduleEvaluator evaluator(fixture.graph, fixture.model);
      EvaluatorWorkspace ws;

      double exact_serial_ns = 0.0;
      bool have_exact = false;
      bool have_fast = false;
      double exact_serial_value = 0.0;
      double fast_serial_value = 0.0;
      for (const EvalMath math : backends) {
        BenchRow serial{n, "serial", to_string(math), 1, 0.0, 0.0, 0, repeats, 0.0, std::nullopt};
        const Measurement m =
            measure(repeats, min_time_ms, max_evals, serial.expected_makespan, [&] {
              return evaluator.expected_makespan(fixture.schedule, ws, /*validate=*/false, math);
            });
        serial.ns_per_eval = m.median_ns;
        serial.ns_per_eval_min = m.min_ns;
        serial.evals = m.evals;
        if (math == EvalMath::exact) {
          exact_serial_value = serial.expected_makespan;
          exact_serial_ns = serial.ns_per_eval;
          have_exact = true;
        } else {
          fast_serial_value = serial.expected_makespan;
          have_fast = true;
        }
        if (have_exact && have_fast &&
            relative_difference(exact_serial_value, fast_serial_value) > 1e-10) {
          throw Error("fast evaluator diverged from exact beyond 1e-10 (n=" +
                      std::to_string(n) + ")");
        }
        rows.push_back(serial);
        log_row(serial, exact_serial_ns);
      }

      if (naive_max > 0 && n <= naive_max) {
        BenchRow naive{n, "algorithm1", "exact", 1, 0.0, 0.0, 0, repeats, 0.0, std::nullopt};
        const Measurement nm =
            measure(repeats, min_time_ms, /*max_evals=*/5, naive.expected_makespan, [&] {
              return evaluate_reference(fixture.graph, fixture.model, fixture.schedule);
            });
        naive.ns_per_eval = nm.median_ns;
        naive.ns_per_eval_min = nm.min_ns;
        naive.evals = nm.evals;
        rows.push_back(naive);
        log_row(naive, exact_serial_ns);
      }
    }

    // Instance-scale rows: how long one whole-instance generate and one
    // DF+BF+RF linearization pass take, and what the frozen SoA instance
    // costs in memory — the provenance trail for the 10^6-task layer.
    for (const std::size_t n : instance_sizes) {
      const GeneratorConfig config{.task_count = n, .seed = 5,
                                   .cost_model = CostModel::proportional(0.1)};
      TaskGraph instance;

      BenchRow gen{n, "generate", "exact", 1, 0.0, 0.0, 0, repeats, 0.0, std::nullopt};
      double unused = 0.0;
      const Measurement gm = measure(repeats, min_time_ms, max_evals, unused, [&] {
        instance = generate_workflow(instance_kind, config);
        return 0.0;
      });
      gen.ns_per_eval = gm.median_ns;
      gen.ns_per_eval_min = gm.min_ns;
      gen.evals = gm.evals;
      gen.instance = BenchRow::InstanceInfo{workflow_tag(instance_kind),
                                            instance.dag().edge_count(),
                                            instance.memory_bytes(), peak_rss_mb()};
      rows.push_back(gen);
      log_row(gen, 0.0);

      BenchRow lin{n, "linearize", "exact", 1, 0.0, 0.0, 0, repeats, 0.0, std::nullopt};
      LinearizeWorkspace lws;
      std::vector<VertexId> order;
      const std::span<const double> weights = instance.weights_view();
      const Measurement lm = measure(repeats, min_time_ms, max_evals, unused, [&] {
        linearize_into(instance.dag(), weights, LinearizeMethod::depth_first, {}, lws, order);
        linearize_into(instance.dag(), weights, LinearizeMethod::breadth_first, {}, lws, order);
        linearize_into(instance.dag(), weights, LinearizeMethod::random_first, {}, lws, order);
        return 0.0;
      });
      lin.ns_per_eval = lm.median_ns;
      lin.ns_per_eval_min = lm.min_ns;
      lin.evals = lm.evals;
      lin.instance = BenchRow::InstanceInfo{workflow_tag(instance_kind),
                                            instance.dag().edge_count(),
                                            instance.memory_bytes(), peak_rss_mb()};
      rows.push_back(lin);
      log_row(lin, 0.0);

      if (max_instance_seconds > 0.0) {
        const double pass_seconds = (gm.min_ns + lm.min_ns) * 1e-9;
        if (pass_seconds > max_instance_seconds) {
          throw Error("instance budget exceeded: generate + linearize at n=" +
                      std::to_string(n) + " took " + format_double(pass_seconds, 2) +
                      " s (budget " + format_double(max_instance_seconds, 2) + " s)");
        }
      }
      if (max_instance_rss_mb > 0.0 && peak_rss_mb() > max_instance_rss_mb) {
        throw Error("instance budget exceeded: peak RSS " + format_double(peak_rss_mb(), 1) +
                    " MB after n=" + std::to_string(n) + " (budget " +
                    format_double(max_instance_rss_mb, 1) + " MB)");
      }
    }

    const std::string json = to_json(rows);
    std::cout << json << "\n";
    const std::string out_path = cli.get_string("out");
    if (!out_path.empty()) {
      std::ofstream file(out_path);
      if (!file.good()) throw InvalidArgument("cannot open " + out_path + " for writing");
      file << json << "\n";
      file.flush();
      if (!file.good()) throw Error("failed writing " + out_path);
      std::cerr << "wrote " << out_path << "\n";
    }
    if (!trace_path.empty()) {
      obs::stop_tracing();
      obs::write_trace_file(trace_path);
    }
    if (cli.get_flag("stats")) {
      std::cerr << obs::MetricsRegistry::global().json() << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
