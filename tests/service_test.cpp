// Service-layer suite: request parsing (query params, flat JSON
// bodies), the JobManager lifecycle, and the headline guarantee over
// real HTTP — the streamed record bytes of a run equal the NDJSON sink
// output of run_experiment for the same experiment and options.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/result_sink.hpp"
#include "http_test_util.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace fpsched::service {
namespace {

using fpsched::testing::dechunk;
using fpsched::testing::http_body;
using fpsched::testing::http_exchange;
using fpsched::testing::http_get;
using fpsched::testing::http_status;

// --- Request parsing ---------------------------------------------------

TEST(ParseJobRequestTest, MapsTheFigureOptionsSurface) {
  const JobRequest request = parse_job_request({{"experiment", "fig7"},
                                                {"sizes", "50,100"},
                                                {"stride", "8"},
                                                {"seed", "7"},
                                                {"weight_cv", "0.5"},
                                                {"eval_math", "fast"},
                                                {"tasks", "123"},
                                                {"downtimes", "0,60"},
                                                {"trials", "9"}});
  EXPECT_EQ(request.experiment, "fig7");
  EXPECT_EQ(request.options.sizes, (std::vector<std::size_t>{50, 100}));
  EXPECT_EQ(request.options.stride, 8u);
  EXPECT_EQ(request.options.seed, 7u);
  EXPECT_DOUBLE_EQ(request.options.weight_cv, 0.5);
  EXPECT_EQ(request.options.eval_math, EvalMath::fast);
  EXPECT_EQ(request.options.tasks, 123u);
  EXPECT_EQ(request.options.downtimes, (std::vector<double>{0, 60}));
  EXPECT_EQ(request.options.trials, 9u);
  EXPECT_EQ(request.options.threads, engine::FigureOptions{}.threads);  // server-owned
}

TEST(ParseJobRequestTest, RejectsServerResourceKeys) {
  // The server sizes its own engine; a client may not.
  for (const std::string key : {"threads", "eval_threads", "instance_cache"}) {
    try {
      parse_job_request({{"experiment", "fig2"}, {key, "2"}});
      FAIL() << key << " must be rejected";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown parameter '" + key + "'"), std::string::npos) << what;
      EXPECT_EQ(what.find("threads,"), std::string::npos) << "listed as known: " << what;
    }
  }
}

TEST(ParseJobRequestTest, QuickMatchesTheCliShrink) {
  const JobRequest quick =
      parse_job_request({{"experiment", "fig2"}, {"quick", "1"}, {"sizes", "600,700"}});
  engine::FigureOptions expected;
  engine::apply_quick_options(expected);
  EXPECT_EQ(quick.options.sizes, expected.sizes);  // quick overrides sizes, as --quick does
  EXPECT_EQ(quick.options.stride, expected.stride);
  // The bare-key form curl produces for "?quick".
  EXPECT_EQ(parse_job_request({{"experiment", "fig2"}, {"quick", ""}}).options.sizes,
            expected.sizes);
}

TEST(ParseJobRequestTest, RejectsBadRequests) {
  EXPECT_THROW(parse_job_request({}), InvalidArgument);                          // no experiment
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"bogus", "1"}}),
               InvalidArgument);                                                 // unknown key
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"sizes", "0"}}),
               InvalidArgument);                                                 // size < 1
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"sizes", "50,,100"}}),
               InvalidArgument);                                                 // empty item
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"stride", "0"}}), InvalidArgument);
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"seed", "-1"}}), InvalidArgument);
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"downtimes", "-5"}}),
               InvalidArgument);
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"quick", "maybe"}}),
               InvalidArgument);
  EXPECT_THROW(parse_job_request({{"experiment", "fig2"}, {"eval_math", "float"}}),
               InvalidArgument);  // backend names are exact | fast only
  // Values the generators or the failure model cannot use fail here, at
  // POST, not inside the job. Past cv = 5 a gamma weight underflows to
  // exactly 0 with a probability that grows to 1 (every draw at 1e150).
  for (const std::string cv : {"-1", "nan", "inf", "1e160", "1e150", "6"}) {
    EXPECT_THROW(parse_job_request({{"experiment", "theory"}, {"weight_cv", cv}}),
                 InvalidArgument)
        << cv;
  }
  EXPECT_DOUBLE_EQ(parse_job_request({{"experiment", "theory"}, {"weight_cv", "5"}})
                       .options.weight_cv,
                   5.0);
  EXPECT_THROW(parse_job_request({{"experiment", "downtime"}, {"downtimes", "inf"}}),
               InvalidArgument);
  // A task count is a point of a grid's double axis: past 2^53 it could
  // name another size than the one asked for.
  for (const std::string key : {"sizes", "tasks"}) {
    EXPECT_THROW(parse_job_request({{"experiment", "robustness"}, {key, "9007199254740993"}}),
                 InvalidArgument)
        << key;
    EXPECT_NO_THROW(parse_job_request({{"experiment", "robustness"}, {key, "9007199254740992"}}))
        << key;
  }
}

// --- One option table, two front ends ----------------------------------

using Settings = std::vector<std::pair<std::string, std::string>>;

std::string describe(const Settings& settings) {
  std::string out;
  for (const auto& [name, value] : settings) out += name + "='" + value + "' ";
  return out;
}

/// What the CLI front end reads from `--name=value` (a set flag is its
/// bare name), or nullopt when it rejects the arguments.
std::optional<engine::FigureOptions> cli_options(const Settings& settings) {
  std::vector<std::string> args{"prog"};
  for (const auto& [name, value] : settings) {
    std::string flag = "--" + name;
    std::replace(flag.begin(), flag.end(), '_', '-');
    args.push_back(name == "quick" ? flag : flag + "=" + value);
  }
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  CliParser cli("test");
  engine::add_figure_options(cli);
  try {
    EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    return engine::read_figure_options(cli);
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

/// What POST /runs reads from the same pairs as query parameters.
std::optional<engine::FigureOptions> http_options(const Settings& settings) {
  std::map<std::string, std::string> params{{"experiment", "fig2"}};
  for (const auto& [name, value] : settings) params[name] = value;
  try {
    return parse_job_request(params).options;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

TEST(OptionTableTest, CliAndHttpReadOneSurface) {
  // Equal options or a rejection on both sides, also for `seed=-1`, which
  // a signed parse wraps to 2^64 - 1, and `+50`, which strtoull accepts.
  const std::vector<Settings> cases = {
      {},
      {{"seed", "-1"}},
      {{"seed", "18446744073709551615"}},
      {{"sizes", "+50"}},
      {{"sizes", "50,,100"}},
      {{"sizes", "60,70"}},
      {{"stride", "0"}},
      {{"stride", " 3"}},
      {{"quick", "1"}},
      {{"sizes", "600,700"}, {"stride", "16"}, {"quick", "1"}},
      {{"weight_cv", "-1"}},
      {{"weight_cv", "0"}},
      {{"weight_cv", "1e-150"}},
      {{"weight_cv", "0x1p-2"}},
      {{"eval_math", "fast"}},
      {{"eval_math", "FAST"}},
      {{"tasks", "30"}, {"trials", "5"}},
      {{"tasks", "0"}},
      {{"downtimes", "0,60.5"}},
      {{"downtimes", "inf"}},
      {{"trials", "1e3"}},
  };
  for (const Settings& settings : cases) {
    const auto cli = cli_options(settings);
    const auto http = http_options(settings);
    ASSERT_EQ(cli.has_value(), http.has_value()) << describe(settings);
    if (!cli) continue;
    for (const engine::FigureOption& row : engine::figure_option_table()) {
      EXPECT_EQ(row.show(*cli), row.show(*http)) << row.name << " after " << describe(settings);
    }
    EXPECT_EQ(cli->threads, http->threads) << describe(settings);
  }
  EXPECT_FALSE(http_options({{"seed", "-1"}}));
  EXPECT_FALSE(http_options({{"sizes", "+50"}}));
  EXPECT_EQ(cli_options({})->sizes, engine::FigureOptions{}.sizes);  // --help's defaults
}

TEST(OptionTableTest, SeededMutationsFailAtParseOrInstantiate) {
  // Admission's invariant over 10^4 query maps and 10^4 flat-JSON
  // bodies: a request either throws InvalidArgument (a 400 at POST) or
  // yields options whose plan flattens and whose first scenario, at 20
  // tasks, instantiates with every weight > 0 — never a job that fails
  // later or evaluates a degenerate instance.
  const engine::ExperimentRegistry& registry = engine::ExperimentRegistry::global();
  std::vector<std::string> experiments;
  for (const engine::Experiment* experiment : registry.experiments()) {
    experiments.push_back(experiment->name);
  }
  const std::vector<std::string> tokens = {
      "", "0", "1", "7", "-1", "+5", " 5", "4.5", "-0", "1e3", "3600", "0x10", "abc",
      "nan", "inf", "-inf", "1e150", "1e152", "1e153", "1e160", "1e-150", "1e-154", "1e-160",
      "1e-320", "1e999", "18446744073709551615", "18446744073709551616", "50,60", "1,,2", ",",
      "0,inf", "exact", "fast", "true", "off", "maybe"};
  const std::string bytes = "{}[]\",:0123456789.-+eE tnfalusxyz_\\";
  std::mt19937_64 rng(20261019);
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto mutate = [&](std::string text) {
    for (std::size_t edits = 1 + pick(3); edits > 0; --edits) {
      const std::size_t at = pick(text.size() + 1);
      const char c = bytes[pick(bytes.size())];
      switch (pick(3)) {
        case 0: text.insert(at, 1, c); break;
        case 1: if (at < text.size()) text.erase(at, 1); break;
        default: if (at < text.size()) text[at] = c; break;
      }
    }
    return text;
  };
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::map<std::string, std::string> params;
    if (pick(20) != 0) params["experiment"] = experiments[pick(experiments.size())];
    for (const engine::FigureOption& row : engine::figure_option_table()) {
      if (pick(3) != 0) continue;
      const std::string valid = row.show(engine::FigureOptions{});
      const std::size_t kind = pick(3);
      params[std::string(row.name)] =
          kind == 0 ? tokens[pick(tokens.size())] : kind == 1 ? mutate(valid) : valid;
    }
    if (pick(25) == 0) params[mutate("seed")] = "1";
    std::string body;
    if (i % 2 == 1) {
      // The same request as a flat JSON body, with lists as arrays,
      // bare tokens unquoted, and sometimes a few bytes garbled.
      body = "{";
      for (const auto& [key, value] : params) {
        if (body.size() > 1) body += ',';
        body += "\"" + key + "\":";
        const bool bare = !value.empty() && value.find_first_not_of(
                                                "0123456789.+-eEnaifxtrulsbcdom") == std::string::npos;
        if (value.find(',') != std::string::npos) {
          body += "[" + value + "]";
        } else {
          body += bare ? value : "\"" + value + "\"";
        }
      }
      body += "}";
      if (pick(2) == 0) body = mutate(body);
    }
    const engine::Experiment* experiment = nullptr;
    engine::FigureOptions options;
    try {
      if (i % 2 == 1) params = parse_flat_json(body);
      const JobRequest request = parse_job_request(params);
      experiment = &registry.find(request.experiment);
      options = request.options;
    } catch (const InvalidArgument&) {
      continue;
    }
    ++accepted;
    std::string request = body;
    for (const auto& [key, value] : params) request += " " + key + "='" + value + "'";
    try {
      const std::vector<engine::PlannedScenario> plan = engine::flatten_plan(
          experiment->build(options));
      ASSERT_FALSE(plan.empty()) << request;
      engine::ScenarioSpec spec = plan.front().spec;
      spec.task_count = 20;
      const TaskGraph graph = spec.instantiate();
      for (VertexId v = 0; v < graph.task_count(); ++v) {
        ASSERT_GT(graph.weight(v), 0.0) << "accepted request draws a zero weight: " << request;
      }
    } catch (const std::exception& e) {
      FAIL() << "accepted request fails later: " << request << ": " << e.what();
    }
  }
  EXPECT_GT(accepted, 1000u);  // the walk reaches past the parser
}

TEST(ParseFlatJsonTest, ParsesScalarsAndScalarArrays) {
  const auto params = parse_flat_json(
      R"({"experiment": "fig2", "quick": true, "sizes": [50, 100], "weight_cv": 0.3,)"
      R"( "note": "a\"b", "nothing": null})");
  EXPECT_EQ(params.at("experiment"), "fig2");
  EXPECT_EQ(params.at("quick"), "true");
  EXPECT_EQ(params.at("sizes"), "50,100");
  EXPECT_EQ(params.at("weight_cv"), "0.3");
  EXPECT_EQ(params.at("note"), "a\"b");
  EXPECT_EQ(params.at("nothing"), "");
  EXPECT_TRUE(parse_flat_json("{}").empty());
}

TEST(ParseFlatJsonTest, RejectsMalformedAndNestedJson) {
  for (const std::string bad :
       {"", "[1]", "{", "{\"a\":}", "{\"a\":1,}", "{\"a\":{\"b\":1}}", "{\"a\":[[1]]}",
        "{\"a\":1} trailing", "{'a':1}"}) {
    EXPECT_THROW(parse_flat_json(bad), InvalidArgument) << bad;
  }
}

TEST(JobStatusJsonTest, SerializesStateAndError) {
  JobStatus status;
  status.id = 3;
  status.experiment = "fig2";
  status.state = JobState::failed;
  status.records = 10;
  status.total_scenarios = 72;
  status.error = "boom";
  const std::string json = to_json(status);
  EXPECT_EQ(json,
            "{\"id\":3,\"experiment\":\"fig2\",\"state\":\"failed\",\"records\":10,"
            "\"total_scenarios\":72,\"records_path\":\"/runs/3/records\",\"error\":\"boom\"}");
}

// --- JobManager over a tiny registry -----------------------------------

/// The cheap two-policy single-panel experiment the manager tests run.
engine::ExperimentRegistry tiny_registry() {
  engine::ExperimentRegistry registry;
  registry.add({"tiny", "tiny test experiment", [](const engine::FigureOptions& options) {
                  engine::FigurePlan plan;
                  plan.heading = "tiny";
                  engine::ScenarioGrid grid;
                  grid.base.workflow = WorkflowKind::montage;
                  grid.base.stride = 16;
                  grid.xs.assign(options.sizes.begin(), options.sizes.end());
                  grid.policies = {
                      engine::ScenarioPolicy::fixed(
                          {LinearizeMethod::depth_first, CkptStrategy::by_weight}),
                      engine::ScenarioPolicy::fixed(
                          {LinearizeMethod::breadth_first, CkptStrategy::by_cost}),
                  };
                  plan.panels = {{grid, "tiny panel", "tiny_panel"}};
                  return plan;
                }});
  return registry;
}

engine::FigureOptions tiny_options() {
  engine::FigureOptions options;
  options.sizes = {50, 60};
  options.threads = 2;
  return options;
}

/// The reference bytes: run_experiment through an NdjsonSink.
std::string reference_ndjson(const engine::ExperimentRegistry& registry,
                             const engine::FigureOptions& options,
                             const std::string& experiment = "tiny") {
  std::ostringstream os;
  engine::NdjsonSink sink(os);
  engine::ResultSink* sinks[] = {&sink};
  engine::run_experiment(registry.find(experiment), options, sinks, nullptr);
  return os.str();
}

TEST(JobManagerTest, RunsAJobAndStreamsByteIdenticalRecords) {
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry);
  const std::uint64_t id = manager.submit({"tiny", tiny_options()});

  std::string streamed;
  const auto result = manager.stream_records(id, [&](std::string_view line) {
    streamed.append(line);
    return true;
  });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.state, JobState::completed);
  EXPECT_EQ(result->status.records, 4u);
  EXPECT_EQ(result->status.total_scenarios, 4u);
  EXPECT_TRUE(result->delivered_all);
  EXPECT_EQ(streamed, reference_ndjson(registry, tiny_options()));

  // A second reader of the finished job sees the same bytes.
  std::string replay;
  manager.stream_records(id, [&](std::string_view line) {
    replay.append(line);
    return true;
  });
  EXPECT_EQ(replay, streamed);
}

TEST(JobManagerTest, ValidatesAtSubmission) {
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry);
  EXPECT_THROW(manager.submit({"unknown", {}}), InvalidArgument);
  engine::FigureOptions bad = tiny_options();
  bad.sizes.clear();  // the grid rejects an empty size axis at build time
  EXPECT_THROW(manager.submit({"tiny", bad}), Error);
  EXPECT_EQ(manager.job_count(), 0u);  // nothing enqueued
}

TEST(JobManagerTest, InstanceCeilingRejectsWithAPlainMessage) {
  // The message goes to the client as the 400 body: it says what was
  // asked and what the server allows, without the server's source paths.
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry, {.executors = 0, .max_task_count = 55});
  try {
    manager.submit({"tiny", tiny_options()});  // sizes 50 and 60
    FAIL() << "a size over the ceiling must be rejected";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("requested instance of 60 tasks", 0), 0u) << what;
    EXPECT_NE(what.find("--max-task-count ceiling of 55"), std::string::npos) << what;
    EXPECT_EQ(what.find("ensure failed"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
  EXPECT_EQ(manager.job_count(), 0u);
}

TEST(JobManagerTest, AdmissionCountsOnlyActiveJobsAndDeleteFreesCapacity) {
  const engine::ExperimentRegistry registry = tiny_registry();
  // executors = 0 pins every job in the queued state, so the active
  // count is deterministic.
  JobManager manager(registry, {.max_jobs = 2, .executors = 0});
  const std::uint64_t first = manager.submit({"tiny", tiny_options()});
  const std::uint64_t second = manager.submit({"tiny", tiny_options()});
  EXPECT_THROW(manager.submit({"tiny", tiny_options()}), TooManyJobs);
  EXPECT_EQ(manager.active_count(), 2u);

  // DELETE of a queued job cancels it and frees its capacity slot.
  const auto erased = manager.erase_job(first);
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(erased->state, JobState::queued);
  EXPECT_FALSE(manager.status(first).has_value());
  const std::uint64_t third = manager.submit({"tiny", tiny_options()});
  EXPECT_GT(third, second);
  EXPECT_EQ(manager.active_count(), 2u);
  EXPECT_EQ(manager.jobs().size(), 2u);

  EXPECT_FALSE(manager.erase_job(99).has_value());
  EXPECT_FALSE(manager.status(99).has_value());
  EXPECT_FALSE(manager.stream_records(99, [](std::string_view) { return true; }).has_value());
}

TEST(JobManagerTest, FinishedJobsDoNotConsumeAdmissionCapacity) {
  const engine::ExperimentRegistry registry = tiny_registry();
  // The seed's admission counted every held job, so max_jobs=1 rejected
  // the second submission forever once one run finished. Active-only
  // admission + terminal eviction makes sequential traffic just work.
  JobManager manager(registry, {.max_jobs = 1});
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t id = manager.submit({"tiny", tiny_options()});
    const auto result = manager.stream_records(id, [](std::string_view) { return true; });
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status.state, JobState::completed);
  }
  // Eviction runs at the next submit, so at most max_jobs older terminal
  // jobs are retained beside the latest one.
  EXPECT_LE(manager.job_count(), 2u);
}

TEST(JobManagerTest, EvictionDropsOldestTerminalJobsNeverActiveOnes) {
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry, {.max_jobs = 1});
  std::vector<std::uint64_t> finished;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t id = manager.submit({"tiny", tiny_options()});
    const auto result = manager.stream_records(id, [](std::string_view) { return true; });
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->status.state, JobState::completed);
    finished.push_back(id);
  }
  // The next submission triggers eviction: of the three terminal jobs
  // only the newest stays; the fresh (active) job is untouched.
  const std::uint64_t fresh = manager.submit({"tiny", tiny_options()});
  EXPECT_FALSE(manager.status(finished[0]).has_value());
  EXPECT_FALSE(manager.status(finished[1]).has_value());
  EXPECT_TRUE(manager.status(finished[2]).has_value());
  ASSERT_TRUE(manager.status(fresh).has_value());
  const auto result = manager.stream_records(fresh, [](std::string_view) { return true; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.state, JobState::completed);
}

TEST(JobManagerTest, DeleteWhileStreamingEndsTheStreamCleanly) {
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry, {.max_jobs = 2, .executors = 0});
  const std::uint64_t id = manager.submit({"tiny", tiny_options()});
  std::optional<StreamResult> result;
  std::thread streamer([&] {
    // Blocks: with no executor the job never produces records.
    result = manager.stream_records(id, [](std::string_view) { return true; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(manager.erase_job(id).has_value());
  streamer.join();  // erase_job wakes the streamer; join must not hang
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->delivered_all);
}

TEST(JobManagerTest, AbortedReaderLeavesTheJobRunning) {
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry);
  const std::uint64_t id = manager.submit({"tiny", tiny_options()});
  // Take one record, then hang up.
  std::size_t seen = 0;
  const auto aborted = manager.stream_records(id, [&](std::string_view) { return ++seen < 1; });
  ASSERT_TRUE(aborted.has_value());
  EXPECT_FALSE(aborted->delivered_all);
  // The job still completes for a later full reader.
  const auto result = manager.stream_records(id, [](std::string_view) { return true; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.state, JobState::completed);
  EXPECT_TRUE(result->delivered_all);
}

// --- The result cache through the JobManager ---------------------------

/// Streams job `id` to completion, expecting full delivery; returns the
/// bytes.
std::string drain_job(JobManager& manager, std::uint64_t id) {
  std::string bytes;
  const auto result = manager.stream_records(id, [&](std::string_view line) {
    bytes.append(line);
    return true;
  });
  EXPECT_TRUE(result.has_value());
  if (result.has_value()) {
    EXPECT_EQ(result->status.state, JobState::completed) << result->status.error;
    EXPECT_TRUE(result->delivered_all);
  }
  return bytes;
}

TEST(JobManagerTest, RepeatRunsServeEveryScenarioFromTheCache) {
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry);
  const std::string reference = reference_ndjson(registry, tiny_options());

  const std::uint64_t cold = manager.submit({"tiny", tiny_options()});
  EXPECT_EQ(drain_job(manager, cold), reference);
  EXPECT_EQ(manager.cache().size(), 4u);

  // The repeat run replays byte-identical records without touching the
  // engine: its counter delta shows one cache hit per scenario and no
  // engine/evaluator activity at all.
  const std::uint64_t warm = manager.submit({"tiny", tiny_options()});
  EXPECT_EQ(drain_job(manager, warm), reference);
  const auto stats = manager.stats(warm);
  ASSERT_TRUE(stats.has_value());
  std::uint64_t hits = 0;
  for (const auto& [name, delta] : stats->counter_deltas) {
    EXPECT_EQ(name.find("fpsched_engine_"), std::string::npos) << name << " advanced";
    EXPECT_EQ(name.find("fpsched_eval_"), std::string::npos) << name << " advanced";
    if (name == "fpsched_result_cache_hits_total") hits = delta;
  }
  EXPECT_EQ(hits, 4u);
}

TEST(JobManagerTest, PartialHitsRunTheirMissesAsSmallerCellGroups) {
  // A downtime job for D = {0, 60}, then one for D = {0, 60, 300}: the
  // second job's only misses are its D = 300 cells, whose D siblings are
  // cache hits, so each miss runs as a cell group of one. Its stream must
  // still equal a cold in-process run byte for byte.
  const engine::ExperimentRegistry& registry = engine::ExperimentRegistry::global();
  JobManager manager(registry);
  engine::FigureOptions options;
  options.tasks = 30;
  options.stride = 8;
  options.threads = 2;
  options.downtimes = {0, 60};
  drain_job(manager, manager.submit({"downtime", options}));

  options.downtimes = {0, 60, 300};
  const std::uint64_t id = manager.submit({"downtime", options});
  const std::string streamed = drain_job(manager, id);
  const auto stats = manager.stats(id);
  ASSERT_TRUE(stats.has_value());
  std::map<std::string, std::uint64_t> deltas(stats->counter_deltas.begin(),
                                              stats->counter_deltas.end());
  // Three panels of six policies: two cached downtimes, one new one.
  EXPECT_EQ(deltas["fpsched_result_cache_hits_total"], 3u * 2u * 6u);
  EXPECT_EQ(deltas["fpsched_result_cache_misses_total"], 3u * 1u * 6u);
  EXPECT_EQ(deltas["fpsched_engine_scenarios_total"], 3u * 1u * 6u);
  EXPECT_EQ(streamed, reference_ndjson(registry, options, "downtime"));
}

TEST(JobManagerTest, DiskCacheSurvivesManagerRestart) {
  const engine::ExperimentRegistry registry = tiny_registry();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fpsched_jobcache_restart_test";
  std::filesystem::remove_all(dir);
  const std::string reference = reference_ndjson(registry, tiny_options());
  JobManagerOptions options;
  options.cache.directory = dir.string();
  {
    JobManager manager(registry, options);
    EXPECT_EQ(drain_job(manager, manager.submit({"tiny", tiny_options()})), reference);
  }
  {
    JobManager manager(registry, options);
    EXPECT_EQ(manager.cache().restored(), 4u);
    const std::uint64_t id = manager.submit({"tiny", tiny_options()});
    EXPECT_EQ(drain_job(manager, id), reference);
    const auto stats = manager.stats(id);
    ASSERT_TRUE(stats.has_value());
    for (const auto& [name, delta] : stats->counter_deltas) {
      EXPECT_EQ(name.find("fpsched_engine_"), std::string::npos) << name << " advanced";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(JobManagerTest, AStalledReaderNeverHoldsUpTheJob) {
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry);
  const std::uint64_t id = manager.submit({"tiny", tiny_options()});
  // The reader takes one record, then stalls inside its write until the
  // job reports completed (or a ~10 s deadline passes), then drains the
  // rest. Readers render outside the manager's lock, so the stall holds
  // up nothing but this stream.
  std::string streamed;
  bool completed_while_stalled = false;
  const auto result = manager.stream_records(id, [&](std::string_view line) {
    if (streamed.empty()) {
      for (int spins = 0; spins < 5000 && !completed_while_stalled; ++spins) {
        completed_while_stalled = manager.status(id)->state == JobState::completed;
        if (!completed_while_stalled) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    streamed.append(line);
    return true;
  });
  EXPECT_TRUE(completed_while_stalled);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.state, JobState::completed);
  EXPECT_TRUE(result->delivered_all);
  EXPECT_EQ(streamed, reference_ndjson(registry, tiny_options()));
}

TEST(JobManagerTest, AnEvictedJobKeepsServingItsAttachedStream) {
  const engine::ExperimentRegistry registry = tiny_registry();
  const std::string reference = reference_ndjson(registry, tiny_options());
  JobManager manager(registry, {.max_jobs = 1});
  const std::uint64_t first = manager.submit({"tiny", tiny_options()});
  EXPECT_EQ(drain_job(manager, first), reference);  // finished

  // A reader of the finished job takes one record; meanwhile two more
  // jobs run to completion, and the second submission evicts `first`.
  std::string streamed;
  bool evicted_while_attached = false;
  const auto result = manager.stream_records(first, [&](std::string_view line) {
    if (streamed.empty()) {
      drain_job(manager, manager.submit({"tiny", tiny_options()}));
      drain_job(manager, manager.submit({"tiny", tiny_options()}));
      evicted_while_attached = !manager.status(first).has_value();
    }
    streamed.append(line);
    return true;
  });
  EXPECT_TRUE(evicted_while_attached);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.state, JobState::completed);
  EXPECT_TRUE(result->delivered_all);
  EXPECT_EQ(streamed, reference);
}

TEST(JobManagerTest, RunningJobStartsNoThread) {
  // The server owns its compute: the executor and the engine's pool
  // exist from construction, and a running job adds no thread to them.
  const engine::ExperimentRegistry registry = tiny_registry();
  JobManager manager(registry);
  const long before = fpsched::testing::process_thread_count();
  ASSERT_GT(before, 0) << "no /proc/self/status";
  engine::FigureOptions options;
  options.sizes = {100, 200, 300};
  long peak = 0;
  {
    const fpsched::testing::ThreadCountSampler sampler;
    const std::uint64_t id = manager.submit({"tiny", options});
    EXPECT_FALSE(drain_job(manager, id).empty());
    peak = sampler.peak();
  }
  EXPECT_EQ(peak, before);
}

// --- The full service over HTTP ----------------------------------------

class ExperimentServiceTest : public ::testing::Test {
 protected:
  ExperimentServiceTest()
      : registry_(tiny_registry()),
        service_({.http = {.port = 0, .threads = 2}, .jobs = {.max_jobs = 3}}, registry_) {
    service_.start();
  }

  std::uint16_t port() { return service_.port(); }

  engine::ExperimentRegistry registry_;
  ExperimentService service_;
};

TEST_F(ExperimentServiceTest, HealthAndExperimentListing) {
  const std::string health = http_get(port(), "/healthz");
  EXPECT_EQ(http_status(health), 200);
  const std::string body = http_body(health);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"version\":\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"jobs\":0"), std::string::npos);
  EXPECT_NE(body.find("\"active_jobs\":0"), std::string::npos);

  const std::string listing = http_get(port(), "/experiments");
  EXPECT_EQ(http_status(listing), 200);
  EXPECT_EQ(http_body(listing),
            "[{\"name\":\"tiny\",\"summary\":\"tiny test experiment\"}]\n");
}

TEST_F(ExperimentServiceTest, MetricsExposesEveryInstrumentedLayer) {
  // Run a job first so the engine/evaluator/job families exist and have
  // advanced (registration is lazy, on first touch of each layer).
  ASSERT_EQ(http_status(http_exchange(
                port(), "POST /runs?experiment=tiny&sizes=50 HTTP/1.1\r\nHost: t\r\n\r\n")),
            201);
  http_get(port(), "/runs/1/records");  // drain: the job is finished after this

  const std::string response = http_get(port(), "/metrics");
  ASSERT_EQ(http_status(response), 200);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string metrics = http_body(response);
  // One family per instrumented layer: evaluator, instance cache,
  // engine, job manager, HTTP server — plus the service info gauge.
  for (const std::string_view family :
       {"# TYPE fpsched_eval_runs_total counter", "# TYPE fpsched_instance_cache_misses_total",
        "# TYPE fpsched_engine_scenarios_total", "# TYPE fpsched_jobs gauge",
        "# TYPE fpsched_http_requests_total", "# TYPE fpsched_http_request_seconds histogram",
        "fpsched_info{version=", "fpsched_uptime_seconds"}) {
    EXPECT_NE(metrics.find(family), std::string::npos) << "missing: " << family;
  }
  // Presence only, not the value: the by-state gauges are process-global
  // and accumulate across the suite's earlier JobManager tests.
  EXPECT_NE(metrics.find("fpsched_jobs{state=\"completed\"}"), std::string::npos) << metrics;
  // The route label is the registered pattern, not the concrete path —
  // bounded cardinality under arbitrary ids.
  EXPECT_NE(metrics.find("fpsched_http_requests_total{route=\"/runs/{id}/records\","
                         "status=\"200\"}"),
            std::string::npos)
      << metrics;
}

TEST_F(ExperimentServiceTest, ConcurrentScrapesDuringARunStayWellFormed) {
  ASSERT_EQ(http_status(http_exchange(
                port(),
                "POST /runs?experiment=tiny&sizes=50%2C60 HTTP/1.1\r\nHost: t\r\n\r\n")),
            201);
  // Scrape repeatedly while the job executes; every response must be a
  // complete 200 exposition (the registry lock only guards snapshots).
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string scrape = http_get(port(), "/metrics");
      if (http_status(scrape) != 200 ||
          http_body(scrape).find("# TYPE fpsched_jobs gauge") == std::string::npos) {
        bad.fetch_add(1);
      }
    }
  });
  const std::string stream = http_get(port(), "/runs/1/records");
  done.store(true);
  scraper.join();
  EXPECT_EQ(http_status(stream), 200);
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ExperimentServiceTest, RunStatsReportTimingAndCounterDeltas) {
  ASSERT_EQ(http_status(http_exchange(
                port(), "POST /runs?experiment=tiny&sizes=50 HTTP/1.1\r\nHost: t\r\n\r\n")),
            201);
  http_get(port(), "/runs/1/records");  // wait for completion

  const std::string response = http_get(port(), "/runs/1/stats");
  ASSERT_EQ(http_status(response), 200);
  const std::string stats = http_body(response);
  EXPECT_NE(stats.find("\"state\":\"completed\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queued_seconds\":"), std::string::npos);
  EXPECT_NE(stats.find("\"run_seconds\":"), std::string::npos);
  // The frozen delta must attribute this job's scenarios to it.
  EXPECT_NE(stats.find("\"fpsched_engine_scenarios_total\":2"), std::string::npos) << stats;
  EXPECT_EQ(http_status(http_get(port(), "/runs/9/stats")), 404);
}

TEST_F(ExperimentServiceTest, SubmittedRunStreamsReferenceBytes) {
  const std::string post = http_exchange(
      port(),
      "POST /runs?experiment=tiny&sizes=50%2C60 HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_EQ(http_status(post), 201) << post;
  EXPECT_NE(http_body(post).find("\"id\":1"), std::string::npos) << post;

  const std::string stream = http_get(port(), "/runs/1/records");
  ASSERT_EQ(http_status(stream), 200);
  EXPECT_NE(stream.find("application/x-ndjson"), std::string::npos);
  EXPECT_EQ(dechunk(http_body(stream)), reference_ndjson(registry_, tiny_options()));

  const std::string status = http_get(port(), "/runs/1");
  EXPECT_NE(http_body(status).find("\"state\":\"completed\""), std::string::npos) << status;
  const std::string runs = http_get(port(), "/runs");
  EXPECT_NE(http_body(runs).find("\"id\":1"), std::string::npos) << runs;
}

TEST_F(ExperimentServiceTest, AcceptsJsonBodiesWithQueryOverride) {
  const std::string body = R"({"experiment":"tiny","sizes":[50,60],"seed":7})";
  const std::string post = http_exchange(
      port(), "POST /runs?seed=42 HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
              "Content-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
  ASSERT_EQ(http_status(post), 201) << post;
  const std::string stream = http_get(port(), "/runs/1/records");
  EXPECT_EQ(dechunk(http_body(stream)), reference_ndjson(registry_, tiny_options()));
}

TEST_F(ExperimentServiceTest, ErrorPathsMapToHttpStatuses) {
  EXPECT_EQ(http_status(http_exchange(
                port(), "POST /runs?experiment=unknown HTTP/1.1\r\nHost: t\r\n\r\n")),
            400);
  EXPECT_EQ(http_status(http_exchange(
                port(), "POST /runs?experiment=tiny&bogus=1 HTTP/1.1\r\nHost: t\r\n\r\n")),
            400);
  EXPECT_EQ(http_status(http_exchange(
                port(), "POST /runs?experiment=tiny&threads=2 HTTP/1.1\r\nHost: t\r\n\r\n")),
            400);
  for (const std::string bad : {"weight_cv=-1", "weight_cv=1e150", "downtimes=inf"}) {
    EXPECT_EQ(http_status(http_exchange(
                  port(), "POST /runs?experiment=tiny&" + bad + " HTTP/1.1\r\nHost: t\r\n\r\n")),
              400)
        << bad;
  }
  EXPECT_EQ(http_status(http_get(port(), "/runs/7")), 404);
  EXPECT_EQ(http_status(http_get(port(), "/runs/7/records")), 404);
  EXPECT_EQ(http_status(http_get(port(), "/runs/notanumber")), 404);
  EXPECT_EQ(http_status(http_exchange(
                port(), "DELETE /runs/7 HTTP/1.1\r\nHost: t\r\n\r\n")),
            404);
}

TEST(ExperimentServiceAdmissionTest, CapacityDeleteAndEvictionOverHttp) {
  // executors = 0 keeps jobs queued, making the 429 path deterministic
  // (with a live executor, finished jobs stop counting toward capacity).
  engine::ExperimentRegistry registry = tiny_registry();
  ExperimentService service(
      {.http = {.port = 0, .threads = 2}, .jobs = {.max_jobs = 1, .executors = 0}}, registry);
  service.start();
  const auto post = [&] {
    return http_exchange(service.port(),
                         "POST /runs?experiment=tiny&sizes=50 HTTP/1.1\r\nHost: t\r\n\r\n");
  };
  ASSERT_EQ(http_status(post()), 201);
  EXPECT_EQ(http_status(post()), 429);

  // DELETE returns the job's last status and frees the capacity slot.
  const std::string erased =
      http_exchange(service.port(), "DELETE /runs/1 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(http_status(erased), 200);
  EXPECT_NE(http_body(erased).find("\"state\":\"queued\""), std::string::npos) << erased;
  EXPECT_EQ(http_status(http_get(service.port(), "/runs/1")), 404);
  EXPECT_EQ(http_status(http_exchange(service.port(),
                                      "DELETE /runs/1 HTTP/1.1\r\nHost: t\r\n\r\n")),
            404);
  EXPECT_EQ(http_status(post()), 201);
}

}  // namespace
}  // namespace fpsched::service
