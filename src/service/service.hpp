// ExperimentService: the HTTP API over the experiment registry and the
// JobManager — the serving layer of fpsched_serve.
//
// Endpoints (all responses JSON unless noted):
//   GET  /healthz             liveness: {"status":"ok","version":...,
//                             "uptime_seconds":...,"jobs":N,"active_jobs":N}
//   GET  /metrics             Prometheus text exposition of the process
//                             telemetry registry (text/plain)
//   GET  /experiments         the registry listing
//   POST /runs                submit a run; experiment name + FigureOptions
//                             from query params and/or a flat JSON body
//                             (query wins on conflicts); 201 + job status
//   GET  /runs                every job's status
//   GET  /runs/{id}           one job's status
//   GET  /runs/{id}/stats     status + queue/run timing + the telemetry
//                             counters that advanced while the job ran
//   GET  /runs/{id}/records   chunked application/x-ndjson stream of the
//                             job's records, live as scenarios complete;
//                             the full stream is byte-identical to
//                             `fpsched_run <name> --format ndjson`
//   DELETE /runs/{id}         cancel a queued job, detach a running one
//                             (its results still land in the result
//                             cache), or drop a finished one; 200 + the
//                             job's last status, 404 when unknown
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "engine/experiment.hpp"
#include "service/http_server.hpp"
#include "service/job_manager.hpp"

namespace fpsched::service {

/// Request params -> run request. Requires "experiment"; every other key
/// is a row of the option table (engine/options.hpp), parsed and
/// range-checked by engine::read_figure_options exactly as the CLI's
/// `--` spelling is. Unknown keys — including `threads` — are rejected (a
/// typo must not silently run the default grid, and a client must not
/// size the server's pool). Like --quick, quick=1 overrides sizes.
JobRequest parse_job_request(const std::map<std::string, std::string>& params);

/// Flat JSON object -> params map, for POST /runs bodies: values may be
/// strings, numbers, booleans, or arrays of scalars (joined with
/// commas, so "sizes": [50, 100] equals "sizes": "50,100"). Nested
/// objects are rejected. Throws InvalidArgument on malformed JSON.
std::map<std::string, std::string> parse_flat_json(std::string_view body);

/// One job status as a JSON object (no trailing newline).
std::string to_json(const JobStatus& status);

/// Job stats as a JSON object: the status fields plus "queued_seconds",
/// "run_seconds" (decimal seconds) and a "metrics_delta" object of the
/// telemetry counters that advanced during the run (no trailing newline).
std::string to_json(const JobStats& stats);

struct ServiceOptions {
  HttpServerOptions http;
  JobManager::Options jobs;
};

class ExperimentService {
 public:
  explicit ExperimentService(
      ServiceOptions options = {},
      const engine::ExperimentRegistry& registry = engine::ExperimentRegistry::global());
  ~ExperimentService();

  /// Binds and serves; throws fpsched::Error when the port is taken.
  void start();

  /// Stops the job executors (after the in-flight job, if any) and the
  /// HTTP server. Idempotent; the destructor runs it.
  void stop();

  /// Bound port (valid after start()).
  std::uint16_t port() const { return http_.port(); }

  JobManager& jobs() { return jobs_; }

 private:
  void register_routes();

  const engine::ExperimentRegistry& registry_;
  JobManager jobs_;
  HttpServer http_;
  /// Construction timestamp (obs::monotonic_ns) — /healthz uptime.
  std::uint64_t start_ns_ = 0;
};

}  // namespace fpsched::service
