// fpsched_serve — the experiment registry as an HTTP service.
//
//   $ fpsched_serve --port 8080 --threads 4 --max-jobs 64
//   $ curl localhost:8080/healthz
//   $ curl localhost:8080/experiments
//   $ curl -X POST 'localhost:8080/runs?experiment=fig2&quick=1'
//   $ curl localhost:8080/runs/1/records        # live NDJSON stream
//
// The record stream of a run is byte-identical to
// `fpsched_run <experiment> --format ndjson`, so HTTP clients and batch
// pipelines consume the same bytes. Runs execute on the server's one
// in-process ExperimentEngine, whose thread pool FPSCHED_THREADS sizes
// (default: all cores), queued in submission order. A bad request,
// including a scenario over --max-task-count, is a 400 whose body is the
// plain error sentence. Finished runs stay for inspection until more than
// --max-jobs of them are held; the oldest go first. SIGINT/SIGTERM shut
// the server down cleanly; a run already executing finishes first (kill
// again to abandon it).
#include <csignal>
#include <iostream>

#include "service/service.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

using namespace fpsched;

int main(int argc, char** argv) {
  CliParser cli(
      "fpsched_serve — serve experiment listings, run submission and live NDJSON record "
      "streams over HTTP.");
  cli.add_option("port", "8080", "TCP port to listen on (0 = pick an ephemeral port)");
  cli.add_option("threads", "4",
                 "HTTP connection worker threads (also the max concurrent requests; record "
                 "streams each occupy one); the experiment engine's pool is sized by "
                 "FPSCHED_THREADS");
  cli.add_option("max-jobs", "64",
                 "max ACTIVE runs (queued + running); further submissions are rejected with "
                 "429 (finished runs are not counted; the oldest beyond --max-jobs of them are "
                 "evicted)");
  cli.add_option("max-task-count", "1000000",
                 "largest per-instance task count a run may request; bigger grid sizes are "
                 "rejected with 400 (instance memory is O(tasks), this caps it)");
  cli.add_option("cache-dir", "",
                 "directory for the content-addressed scenario result cache; repeat scenarios "
                 "replay their bytes instead of recomputing, surviving restarts (empty = "
                 "in-memory cache only)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::size_t port = cli.get_count("port");
    if (port > 65535) throw InvalidArgument("option --port: must be <= 65535");

    service::ServiceOptions options;
    options.http.port = static_cast<std::uint16_t>(port);
    options.http.threads = cli.get_count("threads", 1);
    options.jobs.max_jobs = cli.get_count("max-jobs", 1);
    options.jobs.max_task_count = cli.get_count("max-task-count", 1);
    options.jobs.cache.directory = cli.get_string("cache-dir");

    ignore_sigpipe();
    // Block the shutdown signals before any thread exists so every
    // worker inherits the mask and sigwait() below is the sole consumer.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    service::ExperimentService service(options);
    service.start();
    std::cout << "fpsched_serve listening on port " << service.port() << " ("
              << options.http.threads << " worker threads, max " << options.jobs.max_jobs
              << " jobs)" << std::endl;

    int signal = 0;
    sigwait(&signals, &signal);
    std::cout << "received " << (signal == SIGINT ? "SIGINT" : "SIGTERM")
              << ", shutting down" << std::endl;
    // Restore default dispositions before the (possibly long) drain —
    // stop() waits for an in-flight run, and a second SIGINT/SIGTERM
    // must be able to abandon it instead of staying blocked forever.
    pthread_sigmask(SIG_UNBLOCK, &signals, nullptr);
    service.stop();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
