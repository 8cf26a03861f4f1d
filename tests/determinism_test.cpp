// Determinism audit: the NDJSON record stream of a registered experiment
// must be byte-identical across every thread count and shard split,
// including the FPSCHED_THREADS environment default. This promotes the CI
// `cmp` legs into tier-1: a nondeterministic scheduler or a reassociated
// reduction fails here, with no CI round-trip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "engine/experiment.hpp"
#include "engine/result_sink.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"

namespace fpsched::engine {
namespace {

/// The full fpsched_run-style NDJSON output of `name` under `options`,
/// produced in-process.
std::string run_ndjson(const std::string& name, const FigureOptions& options,
                       const ShardSpec& shard = {}) {
  std::ostringstream out;
  NdjsonSink sink(out);
  ResultSink* sinks[] = {&sink};
  run_experiment(ExperimentRegistry::global().find(name), options, sinks, nullptr, shard);
  return out.str();
}

/// Quick fig2 grid shrunk further (two sizes, strided sweep) so the audit
/// re-runs the experiment several times in tier-1 time.
FigureOptions audit_options() {
  FigureOptions options;
  apply_quick_options(options);
  options.sizes = {50, 100};
  options.stride = 8;
  return options;
}

/// RAII override of an environment variable.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name), saved_(env_string(name)) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// The thread counts every audit sweeps: serial, narrow, the usual
/// width, and engines with more workers than the slice has scenarios.
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 32, 100};

TEST(DeterminismAudit, Fig2BytesInvariantAcrossThreadCounts) {
  const FigureOptions baseline = audit_options();
  const std::string serial = [&] {
    FigureOptions options = baseline;
    options.threads = 1;
    return run_ndjson("fig2", options);
  }();
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.back(), '\n');

  for (const std::size_t threads : kThreadCounts) {
    FigureOptions options = baseline;
    options.threads = threads;
    EXPECT_EQ(serial, run_ndjson("fig2", options)) << "threads=" << threads;
  }
}

TEST(DeterminismAudit, ExplicitExactMathMatchesDefaultBytes) {
  // eval_math = exact is the default spelled out; requesting it must not
  // perturb a single byte.
  FigureOptions options = audit_options();
  options.threads = 1;
  const std::string implicit = run_ndjson("fig2", options);
  options.eval_math = EvalMath::exact;
  EXPECT_EQ(implicit, run_ndjson("fig2", options));
}

TEST(DeterminismAudit, FastMathIsThreadInvariantToo) {
  // The fast recurrence's bytes differ from exact's in the last digits,
  // but they obey the same contract: every evaluation is serial plain
  // libm arithmetic, so the thread count must not move a byte.
  FigureOptions baseline = audit_options();
  baseline.eval_math = EvalMath::fast;
  FigureOptions serial_options = baseline;
  serial_options.threads = 1;
  const std::string serial = run_ndjson("fig2", serial_options);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {4, 32}) {
    FigureOptions options = baseline;
    options.threads = threads;
    EXPECT_EQ(serial, run_ndjson("fig2", options)) << "threads=" << threads;
  }
}

TEST(DeterminismAudit, HonorsFpschedThreadsEnvDefault) {
  const FigureOptions baseline = audit_options();
  FigureOptions serial_options = baseline;
  serial_options.threads = 1;
  const std::string serial = run_ndjson("fig2", serial_options);
  for (const char* threads : {"1", "2", "5", "64", "-1"}) {
    const ScopedEnv env("FPSCHED_THREADS", threads);
    FigureOptions options = baseline;  // threads = 0: resolve from the environment
    EXPECT_EQ(serial, run_ndjson("fig2", options)) << "FPSCHED_THREADS=" << threads;
  }
}

TEST(DeterminismAudit, ShardsConcatenateAtEveryThreadCount) {
  // Process sharding composed with the engine's scheduling: a shard's
  // slice has few scenarios, so wide engines fill their workers from the
  // in-flight budget sweeps — the concatenated shard streams must still
  // equal the unsharded bytes.
  const FigureOptions baseline = audit_options();
  FigureOptions serial_options = baseline;
  serial_options.threads = 1;
  const std::string serial = run_ndjson("fig2", serial_options);
  for (const std::size_t threads : kThreadCounts) {
    FigureOptions options = baseline;
    options.threads = threads;
    std::string merged;
    const std::size_t shards = 3;
    for (std::size_t index = 1; index <= shards; ++index) {
      merged += run_ndjson("fig2", options, {index, shards});
    }
    EXPECT_EQ(serial, merged) << "threads=" << threads;
  }
}

TEST(DeterminismAudit, TelemetryAndTracingNeverTouchRecordBytes) {
  // The observability hard invariant: metrics are always-on and tracing
  // is opt-in, and neither may perturb a single figure byte. Compare the
  // fig2 and fig7 streams produced with tracing off against the same
  // runs with tracing on (metrics accumulate in both — they have no off
  // switch, which is exactly why they must stay out of the output path).
  FigureOptions options = audit_options();
  options.tasks = 60;
  options.threads = 4;
  const std::string fig2_plain = run_ndjson("fig2", options);
  const std::string fig7_plain = run_ndjson("fig7", options);

  obs::start_tracing();
  const std::string fig2_traced = run_ndjson("fig2", options);
  const std::string fig7_traced = run_ndjson("fig7", options);
  obs::stop_tracing();

  EXPECT_EQ(fig2_plain, fig2_traced);
  EXPECT_EQ(fig7_plain, fig7_traced);
  // And the trace actually captured the runs (an empty trace would make
  // the byte-compare vacuous).
  const std::string trace = obs::trace_json();
  EXPECT_NE(trace.find("\"name\":\"experiment fig2\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"experiment fig7\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
}

TEST(DeterminismAudit, RobustnessSimulationIsThreadInvariant) {
  // The registry-migrated robustness study adds the simulated-best
  // policy path (Monte-Carlo trials inside a scenario); its records must
  // obey the same contract. Tiny trial count: the audit checks bytes,
  // not statistics.
  FigureOptions options;
  options.tasks = 40;
  options.trials = 25;
  options.threads = 1;
  const std::string serial = run_ndjson("robustness", options);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"policy_kind\":\"simulated_best\""), std::string::npos);
  EXPECT_NE(serial.find("\"sim_distribution\":\"weibull\""), std::string::npos);
  options.threads = 8;
  EXPECT_EQ(serial, run_ndjson("robustness", options));
}

TEST(DeterminismAudit, Fig7SweepExperimentIsInvariantToo) {
  // A lambda-axis experiment with best-linearization policies (the other
  // record shape CI used to cmp).
  FigureOptions options = audit_options();
  options.tasks = 60;
  options.threads = 1;
  const std::string serial = run_ndjson("fig7", options);
  ASSERT_FALSE(serial.empty());
  options.threads = 64;
  EXPECT_EQ(serial, run_ndjson("fig7", options));
}

}  // namespace
}  // namespace fpsched::engine
