// JobManager: the experiment-run queue behind the HTTP service.
//
// A job is one registered experiment run (name + FigureOptions). submit()
// validates the request against the registry — including building and
// flattening the plan, so a bad option fails the POST, not the worker —
// then enqueues it with its flattened plan. A fixed set of executor
// threads (one by default: each job already parallelizes across cores)
// pops jobs in submission order and runs them on the manager's one
// ExperimentEngine, built at start-up and sized by default_thread_count()
// (FPSCHED_THREADS) — the server owns its compute pool, no request sizes
// it. The executor takes the job's plan, looks every scenario up in the
// shared content-addressed ResultCache, and runs only the misses through
// the engine.
//
// A job's record stream is one shared, immutable body per flatten-plan
// position plus one line prefix per panel: a hit holds the cache's own
// body, a miss the body it just computed and inserted. Every record is
// therefore held once, however many jobs and readers share it, and a
// cache-served response is byte-identical to a cold one. Streaming
// readers follow the stream's produced prefix under a condition variable
// and render each line (prefix + body + "\n") outside the lock, so
// `GET /runs/{id}/records` delivers records live as scenarios complete,
// the full stream is byte-identical to `fpsched_run <name> --format
// ndjson`, and no reader, however slow, holds up the executor.
//
// Production hardening:
//  * Admission counts only ACTIVE jobs (queued + running); finished jobs
//    are evicted by count (oldest first, once more than max_jobs of them
//    are held) instead of permanently consuming capacity.
//  * DELETE /runs/{id} cancels a queued job, detaches a running one (the
//    engine pass finishes into the cache), or drops a finished one —
//    always freeing its capacity. DELETE and eviction drop only the
//    manager's reference: an attached reader keeps the job, and with it
//    its bodies, alive until its stream ends (a deleted job's readers
//    end early; an evicted job's readers finish).
//  * Memory is the cache's bodies plus about 20 bytes per position (a
//    body pointer and a panel index) of each retained job.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/experiment.hpp"
#include "service/result_cache.hpp"
#include "support/error.hpp"
#include "support/sync.hpp"

namespace fpsched::service {

enum class JobState : std::uint8_t { queued, running, completed, failed };

std::string to_string(JobState state);

/// One run request: a registered experiment name plus the options the
/// builder consumes (the HTTP layer parses these from query params or a
/// JSON body).
struct JobRequest {
  std::string experiment;
  engine::FigureOptions options;
};

/// Point-in-time snapshot of a job (records counts the stream positions
/// produced so far; total_scenarios is the flattened scenario count,
/// known at submission).
struct JobStatus {
  std::uint64_t id = 0;
  std::string experiment;
  JobState state = JobState::queued;
  std::size_t records = 0;
  std::size_t total_scenarios = 0;
  std::string error;  // failed jobs only
};

/// JobStatus plus the job's timing and its slice of the process-wide
/// telemetry counters (GET /runs/{id}/stats). For a finished job the
/// delta is frozen at completion; for a running job it is computed live.
/// Counter deltas are process-wide, so with executors > 1 a concurrent
/// job's work is attributed to both — exact per-job attribution would
/// need per-job registries, which the single-executor default makes
/// unnecessary.
struct JobStats {
  JobStatus status;
  /// Nanoseconds spent queued (submit -> start; running total while
  /// still queued).
  std::uint64_t queued_ns = 0;
  /// Nanoseconds spent executing (start -> finish; running total while
  /// executing; 0 while queued).
  std::uint64_t run_ns = 0;
  /// ("name{labels}", delta) of every counter that advanced while the
  /// job ran, in registration order.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};

/// Outcome of stream_records: the job's status at stream exit plus
/// whether every produced record line actually reached the writer (false
/// when the client went away, the job was deleted mid-stream, or the
/// manager stopped).
struct StreamResult {
  JobStatus status;
  bool delivered_all = false;
};

/// JobManager tuning. (A top-level struct, not a nested one: a nested
/// class with default member initializers cannot be a `= {}` default
/// argument inside its enclosing class.)
struct JobManagerOptions {
  /// Ceiling on ACTIVE jobs (queued + running); submissions beyond it
  /// are rejected with 429. Finished jobs do not count — they are
  /// retained for inspection, and the oldest beyond max_jobs of them are
  /// evicted at the next submit.
  std::size_t max_jobs = 64;
  /// Executor threads. 1 serializes jobs — usually right, since each
  /// job saturates the machine through the engine's pool (shared by all
  /// executors). 0 is allowed for tests: jobs queue but never run until
  /// deleted.
  std::size_t executors = 1;
  /// Largest per-instance task count a request may ask for. Instance
  /// memory is O(tasks + edges), so without a ceiling one untrusted
  /// POST /runs asking for a huge grid size could OOM the server. The
  /// default admits the 10^6-task instances the layer is built for.
  std::size_t max_task_count = 1'000'000;
  /// Shared scenario result cache (directory empty = memory-only).
  ResultCacheOptions cache = {};
};

class JobManager {
 public:
  using Options = JobManagerOptions;

  explicit JobManager(const engine::ExperimentRegistry& registry, Options options = {});
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validates and enqueues; returns the job id. Throws InvalidArgument
  /// for an unknown experiment, options out of the option table's range
  /// (check_figure_options), a plan the grid rejects, a scenario whose
  /// task count exceeds max_task_count, or a manager that is stopping,
  /// and TooManyJobs when max_jobs ACTIVE jobs are already held.
  std::uint64_t submit(JobRequest request);

  std::optional<JobStatus> status(std::uint64_t id) const;

  /// Status plus timing and counter deltas; nullopt for an unknown id.
  std::optional<JobStats> stats(std::uint64_t id) const;

  /// All jobs, oldest first.
  std::vector<JobStatus> jobs() const;

  std::size_t job_count() const;

  /// Jobs currently queued or running (the /healthz active count).
  std::size_t active_count() const;

  /// Removes the job: a queued job is cancelled, a running job detached
  /// (its engine pass finishes into the result cache), a finished job
  /// dropped. Attached streamers wake and end their streams. Returns the
  /// job's last status, or nullopt for an unknown id.
  std::optional<JobStatus> erase_job(std::uint64_t id);

  /// Streams the job's NDJSON record lines (each with its trailing
  /// newline) through `write`, in record order, blocking until the job
  /// reaches a terminal state, `write` returns false (client gone), the
  /// job is deleted, or the manager stops. Each line is rendered outside
  /// the manager's lock, so a slow `write` delays only its own stream.
  /// Returns nullopt for an unknown id.
  std::optional<StreamResult> stream_records(
      std::uint64_t id, const std::function<bool(std::string_view line)>& write) const;

  /// The shared scenario result cache (tests and telemetry).
  ResultCache& cache() { return cache_; }

  /// Wakes streamers and joins the executors once the in-flight job (if
  /// any) finishes. Idempotent; the destructor calls it.
  void stop();

 private:
  // Job fields are guarded by the manager's mutex_ once the job is
  // visible (submitted): the executor publishes the stream (bodies,
  // prefixes, panel_of) under the lock before the first record, and
  // every later mutation (a body, produced, state) happens under the
  // lock. prefixes and panel_of are immutable once published.
  struct Job {
    std::uint64_t id = 0;
    JobRequest request;
    JobState state = JobState::queued;
    /// DELETE arrived: the job is out of the map and its streamers end;
    /// the executor still finishes its engine pass into the cache.
    bool deleted = false;

    /// The flattened plan that submit built and validated; the executor
    /// moves it out when the job starts, so a finished job holds none.
    std::vector<engine::PlannedScenario> planned;

    /// The record stream, sized to the flattened plan when the job
    /// starts: one body per position (a hit's from the probe, a miss's
    /// once computed), the record_json_prefix of each panel, and each
    /// position's panel. Every position below `produced` holds its body;
    /// its line is prefixes[panel_of[p]] + *bodies[p] + "\n".
    std::vector<RecordBody> bodies;
    std::vector<std::string> prefixes;
    std::vector<std::uint32_t> panel_of;
    std::size_t produced = 0;

    std::size_t total_scenarios = 0;
    std::string error;
    // Telemetry (obs::monotonic_ns timestamps; 0 = not reached yet).
    std::uint64_t submit_ns = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t finish_ns = 0;
    /// Counter snapshot taken when the job started running.
    std::vector<std::pair<std::string, std::uint64_t>> counters_at_start;
    /// Frozen at completion (terminal states only).
    std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  };

  static bool terminal(const Job& job) {
    return job.state == JobState::completed || job.state == JobState::failed;
  }

  JobStatus snapshot_locked(const Job& job) const REQUIRES(mutex_);
  std::size_t active_locked() const REQUIRES(mutex_);
  /// Drops the oldest terminal jobs beyond max_jobs of them.
  void evict_locked() REQUIRES(mutex_);
  /// Moves job.produced past every position that holds its body.
  void advance_locked(Job& job) REQUIRES(mutex_);
  void executor_loop() EXCLUDES(mutex_);
  void run_job(const std::shared_ptr<Job>& job) EXCLUDES(mutex_);

  const engine::ExperimentRegistry& registry_;
  Options options_;
  ResultCache cache_;
  /// Runs every job's cache misses; safe to share across executors.
  const engine::ExperimentEngine engine_;

  mutable Mutex mutex_;
  /// Signals every state change: new records, state transitions, new
  /// queued jobs, deletions, shutdown.
  mutable CondVar changed_;
  /// Jobs by id (ordered, so iteration is oldest-first). shared_ptr:
  /// executors and streamers keep the Job alive across erase_job /
  /// eviction without holding the lock.
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_ GUARDED_BY(mutex_);
  /// Submission-order executor queue; ids of deleted jobs are lazily
  /// skipped on pop (erasure never has to search the queue).
  std::deque<std::uint64_t> queue_ GUARDED_BY(mutex_);
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> executors_;
};

/// Thrown by submit() when the manager is at max_jobs capacity (the HTTP
/// layer maps it to 429).
class TooManyJobs : public Error {
 public:
  explicit TooManyJobs(const std::string& what) : Error(what) {}
};

}  // namespace fpsched::service
