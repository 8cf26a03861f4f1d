// JobManager: the experiment-run queue behind the HTTP service.
//
// A job is one registered experiment run (name + FigureOptions). submit()
// validates the request against the registry — including building the
// plan, so a bad option fails the POST, not the worker — then enqueues
// it. A fixed set of executor threads (one by default: each job already
// parallelizes across cores) pops jobs in submission order and runs them
// on the manager's one ExperimentEngine, built at start-up and sized by
// default_thread_count() (FPSCHED_THREADS) — the server owns its compute
// pool, no request sizes it. The executor flattens the job's plan, looks every
// scenario up in the shared content-addressed ResultCache, and runs only
// the misses through the engine — cached records are replayed and merged
// into the stream at their flatten-plan positions, so a cache-served
// response is byte-identical to a cold one. Streaming readers follow the
// job's record buffer under a condition variable, so
// `GET /runs/{id}/records` delivers records live as scenarios complete
// and the full stream is byte-identical to
// `fpsched_run <name> --format ndjson`.
//
// Production hardening (vs. the first service cut):
//  * Admission counts only ACTIVE jobs (queued + running); finished jobs
//    are evicted by count and age instead of permanently consuming
//    max_jobs capacity.
//  * DELETE /runs/{id} cancels a queued job, detaches a running one (the
//    engine pass finishes into the cache, its buffered output dropped),
//    or drops a finished one — always freeing its capacity.
//  * Record buffers are bounded (max_record_lines): a producer that gets
//    ahead either trims cache-replayable lines every attached streamer
//    has consumed, or blocks until a streamer advances — the server's
//    memory stays bounded no matter how large the job or slow the
//    client. Late streamers re-render trimmed lines from the cache.
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

/// Point-in-time snapshot of a job (records counts what the job has
/// produced so far — buffered or already trimmed to the cache;
/// total_scenarios is the flattened scenario count, known at submission).
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
/// when the client went away, the job was deleted mid-stream, the
/// manager stopped, or a trimmed line could no longer be replayed from a
/// bounded cache).
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
  /// retained for inspection and evicted by count/age below.
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
  /// Terminal (completed/failed) jobs retained for inspection; the
  /// oldest beyond this are evicted at the next submit. 0 = max_jobs.
  std::size_t max_finished_jobs = 0;
  /// Age ceiling for terminal jobs (seconds since finish); 0 disables
  /// age-based eviction.
  std::uint64_t job_ttl_seconds = 0;
  /// Per-job record-buffer ceiling (NDJSON lines); 0 = unbounded. At the
  /// ceiling the producer trims replayable lines or blocks (see the
  /// header comment).
  std::size_t max_record_lines = 0;
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
  /// for an unknown experiment or options the builder rejects, and
  /// TooManyJobs when max_jobs ACTIVE jobs are already held.
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
  /// (its engine pass finishes into the result cache; its buffered lines
  /// and any blocked producer are released), a finished job dropped.
  /// Attached streamers wake and end their streams. Returns the job's
  /// last status, or nullopt for an unknown id.
  std::optional<JobStatus> erase_job(std::uint64_t id);

  /// Streams the job's NDJSON record lines (each with its trailing
  /// newline) through `write`, in record order, blocking until the job
  /// reaches a terminal state, `write` returns false (client gone), the
  /// job is deleted, or the manager stops. Lines already trimmed from
  /// the buffer are re-rendered from the result cache. Returns nullopt
  /// for an unknown id.
  std::optional<StreamResult> stream_records(
      std::uint64_t id, const std::function<bool(std::string_view line)>& write) const;

  /// The shared scenario result cache (tests and telemetry).
  ResultCache& cache() { return cache_; }

  /// Wakes streamers and joins the executors once the in-flight job (if
  /// any) finishes. Idempotent; the destructor calls it.
  void stop();

 private:
  /// One stream position of a job: the cache hash of its record body
  /// plus the owning panel (index into Job::slugs) — everything needed
  /// to re-render the line after it was trimmed from the buffer.
  /// Compact on purpose: a million-scenario job stores one of these per
  /// record, not a canonical key string.
  struct RecordPos {
    std::uint64_t key_hash = 0;
    std::uint32_t slug = 0;
  };

  // Job fields are guarded by the manager's mutex_ once the job is
  // visible (submitted): the executor publishes bulk fields (positions,
  // slugs) under the lock before the first record, and every later
  // mutation (lines, cursors, state) happens under the lock.
  struct Job {
    std::uint64_t id = 0;
    JobRequest request;
    JobState state = JobState::queued;
    /// DELETE arrived: the job is out of the map; the executor drops
    /// its output (the cache still receives results) and producers and
    /// streamers release immediately.
    bool deleted = false;

    /// The buffered window [lines_base, lines_total) of the record
    /// stream; positions below lines_base were trimmed and replay from
    /// the cache.
    std::deque<std::string> lines;  // NDJSON records, each "\n"-terminated
    std::size_t lines_base = 0;
    std::size_t lines_total = 0;
    /// Replay metadata per stream position (published before record 0).
    std::vector<RecordPos> positions;
    std::vector<std::string> slugs;
    /// Attached streamer cursors (token -> next position to send); the
    /// producer may trim position p only when every cursor is past it.
    std::map<std::uint64_t, std::size_t> cursors;
    std::uint64_t next_cursor_token = 1;

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
  /// Drops terminal jobs beyond max_finished_jobs / past job_ttl_seconds.
  void evict_locked(std::uint64_t now_ns) REQUIRES(mutex_);
  /// Releases a job's buffered lines (gauge bookkeeping included).
  void drop_lines_locked(Job& job) REQUIRES(mutex_);
  /// Appends one produced line, trimming or blocking at the buffer
  /// ceiling; returns false when the job was deleted or the manager
  /// stopped (the line is dropped).
  bool append_line(const std::shared_ptr<Job>& job, std::string line) EXCLUDES(mutex_);
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
  /// Signals buffer space: a streamer advanced or detached, a job was
  /// deleted, the manager stopped. Producers at the ceiling wait here.
  mutable CondVar space_;
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
