#include "service/job_manager.hpp"

#include <map>
#include <span>
#include <utility>

#include "engine/result_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fpsched::service {

namespace {

// Telemetry only (see obs/metrics.hpp). The by-state gauges are labeled
// siblings of one fpsched_jobs family.
struct JobMetrics {
  obs::Gauge& queued;
  obs::Gauge& running;
  obs::Gauge& completed;
  obs::Gauge& failed;
  obs::Counter& submitted;
  obs::Counter& finished_ok;
  obs::Counter& finished_err;
  obs::Counter& evicted;
  obs::Gauge& record_lines;
  obs::Histogram& run_seconds;
};

JobMetrics& job_metrics() {
  static JobMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const std::string_view help = "jobs currently held, by state";
    return new JobMetrics{reg.gauge("fpsched_jobs", help, "state=\"queued\""),
                          reg.gauge("fpsched_jobs", help, "state=\"running\""),
                          reg.gauge("fpsched_jobs", help, "state=\"completed\""),
                          reg.gauge("fpsched_jobs", help, "state=\"failed\""),
                          reg.counter("fpsched_jobs_submitted_total", "jobs accepted by submit()"),
                          reg.counter("fpsched_jobs_completed_total", "jobs finished successfully"),
                          reg.counter("fpsched_jobs_failed_total", "jobs finished with an error"),
                          reg.counter("fpsched_jobs_evicted_total",
                                      "terminal jobs dropped by count/age eviction"),
                          reg.gauge("fpsched_job_record_lines",
                                    "NDJSON record lines buffered across all jobs"),
                          reg.histogram("fpsched_job_run_seconds", "execution seconds per job",
                                        obs::latency_buckets_seconds())};
  }();
  return *metrics;
}

/// Per-counter advance between two registry snapshots (zero deltas are
/// dropped). Matched by name through a sorted index — O(n log n), where
/// the old nested scan went quadratic in the counter count — so a
/// counter registered mid-job still lines up.
std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
  std::map<std::string_view, std::uint64_t> base;
  for (const auto& [name, value] : before) base.emplace(name, value);
  std::vector<std::pair<std::string, std::uint64_t>> delta;
  for (const auto& [name, value] : after) {
    const auto it = base.find(name);
    const std::uint64_t start = it == base.end() ? 0 : it->second;
    if (value > start) delta.emplace_back(name, value - start);
  }
  return delta;
}

}  // namespace

std::string to_string(JobState state) {
  switch (state) {
    case JobState::queued: return "queued";
    case JobState::running: return "running";
    case JobState::completed: return "completed";
    case JobState::failed: return "failed";
  }
  return "?";
}

JobManager::JobManager(const engine::ExperimentRegistry& registry, Options options)
    : registry_(registry), options_(options), cache_(options_.cache) {
  ensure(options_.max_jobs >= 1, "the job manager needs max_jobs >= 1");
  // executors == 0 is allowed: jobs queue but never start — the
  // deterministic mode the admission/eviction tests drive.
  executors_.reserve(options_.executors);
  for (std::size_t i = 0; i < options_.executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

JobManager::~JobManager() { stop(); }

std::uint64_t JobManager::submit(JobRequest request) {
  // Validate the whole request up front — the registry lookup, the plan
  // build, and the grid validation all throw InvalidArgument with a
  // message worth relaying to the client — so a bad request fails the
  // submission, never the executor.
  const engine::Experiment& experiment = registry_.find(request.experiment);
  const engine::FigurePlan plan = experiment.build(request.options);
  std::size_t total = 0;
  for (const engine::PanelSpec& panel : plan.panels) {
    panel.grid.validate();
    for (const std::size_t size : panel.grid.sizes) {
      ensure(size <= options_.max_task_count,
             "requested instance of " + std::to_string(size) + " tasks exceeds the server's " +
                 "--max-task-count ceiling of " + std::to_string(options_.max_task_count));
    }
    total += panel.grid.scenario_count();
  }

  const std::uint64_t now = obs::monotonic_ns();
  const LockGuard lock(mutex_);
  ensure(!stopping_, "the job manager is shutting down");
  evict_locked(now);
  // Admission counts only ACTIVE jobs: finished jobs are inspection
  // state, not load, and are reclaimed by eviction — a server left
  // running can never wedge itself into permanent 429s.
  if (active_locked() >= options_.max_jobs) {
    throw TooManyJobs("job capacity reached (" + std::to_string(options_.max_jobs) +
                      " active jobs); wait for one to finish, DELETE one, or raise --max-jobs");
  }
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->request = std::move(request);
  job->total_scenarios = total;
  job->submit_ns = now;
  const std::uint64_t id = job->id;
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  job_metrics().submitted.add(1);
  job_metrics().queued.add(1);
  changed_.notify_all();
  return id;
}

JobStatus JobManager::snapshot_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.experiment = job.request.experiment;
  status.state = job.state;
  status.records = job.lines_total;
  status.total_scenarios = job.total_scenarios;
  status.error = job.error;
  return status;
}

std::size_t JobManager::active_locked() const {
  std::size_t active = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::queued || job->state == JobState::running) ++active;
  }
  return active;
}

void JobManager::drop_lines_locked(Job& job) {
  job_metrics().record_lines.add(-static_cast<std::int64_t>(job.lines.size()));
  job.lines.clear();
  job.lines_base = job.lines_total;
  space_.notify_all();
}

void JobManager::evict_locked(std::uint64_t now_ns) {
  JobMetrics& metrics = job_metrics();
  const auto evict_one = [&](std::map<std::uint64_t, std::shared_ptr<Job>>::iterator it)
                             REQUIRES(mutex_) {
    Job& job = *it->second;
    (job.state == JobState::completed ? metrics.completed : metrics.failed).add(-1);
    metrics.evicted.add(1);
    // Attached streamers keep the Job alive through their shared_ptr and
    // replay what they have not sent yet from the result cache
    // (drop_lines_locked moved the whole window behind lines_base).
    drop_lines_locked(job);
    jobs_.erase(it);
  };

  if (options_.job_ttl_seconds != 0) {
    const std::uint64_t ttl_ns = options_.job_ttl_seconds * 1'000'000'000ULL;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      auto next = std::next(it);
      const Job& job = *it->second;
      if (terminal(job) && job.finish_ns + ttl_ns <= now_ns) evict_one(it);
      it = next;
    }
  }

  const std::size_t max_finished =
      options_.max_finished_jobs != 0 ? options_.max_finished_jobs : options_.max_jobs;
  std::size_t finished = 0;
  for (const auto& [id, job] : jobs_) {
    if (terminal(*job)) ++finished;
  }
  // Oldest terminal jobs first (map order is id order). Queued and
  // running jobs are never candidates.
  for (auto it = jobs_.begin(); finished > max_finished && it != jobs_.end();) {
    auto next = std::next(it);
    if (terminal(*it->second)) {
      evict_one(it);
      --finished;
    }
    it = next;
  }
}

std::optional<JobStatus> JobManager::status(std::uint64_t id) const {
  const LockGuard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot_locked(*it->second);
}

std::vector<JobStatus> JobManager::jobs() const {
  const LockGuard lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

std::size_t JobManager::job_count() const {
  const LockGuard lock(mutex_);
  return jobs_.size();
}

std::size_t JobManager::active_count() const {
  const LockGuard lock(mutex_);
  return active_locked();
}

std::optional<JobStats> JobManager::stats(std::uint64_t id) const {
  // Both snapshots are taken before the job lock: the registry has its
  // own mutex and is never held while waiting on ours.
  const std::uint64_t now = obs::monotonic_ns();
  const auto counters = obs::MetricsRegistry::global().counter_values();
  const LockGuard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobStats stats;
  stats.status = snapshot_locked(job);
  stats.queued_ns = (job.start_ns != 0 ? job.start_ns : now) - job.submit_ns;
  switch (job.state) {
    case JobState::queued: break;
    case JobState::running:
      stats.run_ns = now - job.start_ns;
      stats.counter_deltas = counter_delta(job.counters_at_start, counters);
      break;
    case JobState::completed:
    case JobState::failed:
      stats.run_ns = job.finish_ns - job.start_ns;
      stats.counter_deltas = job.counter_deltas;
      break;
  }
  return stats;
}

std::optional<JobStatus> JobManager::erase_job(std::uint64_t id) {
  const LockGuard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const std::shared_ptr<Job> job = it->second;
  const JobStatus snapshot = snapshot_locked(*job);
  JobMetrics& metrics = job_metrics();
  switch (job->state) {
    case JobState::queued:
      // Its id stays in queue_; the executor skips ids that no longer
      // resolve, so erasure never searches the queue.
      metrics.queued.add(-1);
      break;
    case JobState::running:
      // The executor owns the running gauge and decrements it when the
      // detached engine pass finishes (into the cache only).
      break;
    case JobState::completed:
    case JobState::failed:
      (job->state == JobState::completed ? metrics.completed : metrics.failed).add(-1);
      break;
  }
  job->deleted = true;
  drop_lines_locked(*job);
  jobs_.erase(it);
  changed_.notify_all();
  space_.notify_all();
  return snapshot;
}

std::optional<StreamResult> JobManager::stream_records(
    std::uint64_t id, const std::function<bool(std::string_view line)>& write) const {
  UniqueLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  // The shared_ptr keeps the Job valid across DELETE/eviction while we
  // stream; positions/slugs are immutable once published, lines and
  // cursors only change under the lock.
  const std::shared_ptr<Job> job = it->second;
  const std::uint64_t token = job->next_cursor_token++;
  job->cursors.emplace(token, 0);
  const auto detach = [&]() REQUIRES(mutex_) {
    job->cursors.erase(token);
    space_.notify_all();
  };

  std::size_t sent = 0;
  for (;;) {
    bool replay_failed = false;
    while (sent < job->lines_total && !job->deleted && !stopping_) {
      bool alive;
      if (sent < job->lines_base) {
        // This position was trimmed from the buffer: re-render it from
        // the result cache (head re-attached per job, body by hash).
        const RecordPos pos = job->positions[sent];
        std::string line = engine::record_json_prefix(job->request.experiment,
                                                      job->slugs[pos.slug]);
        lock.unlock();
        const std::optional<std::string> body = cache_.fetch(pos.key_hash);
        if (!body) {
          // Only reachable with a bounded cache that already evicted the
          // entry: the stream has a hole, so end it as truncated.
          lock.lock();
          replay_failed = true;
          break;
        }
        line += *body;
        line += '\n';
        alive = write(line);
        lock.lock();
      } else {
        // Copy the line out so the (possibly slow) client write happens
        // without blocking the executor appending new records.
        const std::string line = job->lines[sent - job->lines_base];
        lock.unlock();
        alive = write(line);
        lock.lock();
      }
      ++sent;
      job->cursors[token] = sent;
      space_.notify_all();  // our advance may unblock a producer's trim
      if (!alive) {
        detach();
        return StreamResult{snapshot_locked(*job), false};
      }
    }
    const bool drained = sent == job->lines_total;
    if (replay_failed || job->deleted || stopping_ || (terminal(*job) && drained)) {
      detach();
      return StreamResult{snapshot_locked(*job),
                          !replay_failed && !job->deleted && terminal(*job) && drained};
    }
    changed_.wait(lock, mutex_);
  }
}

bool JobManager::append_line(const std::shared_ptr<Job>& job, std::string line) {
  UniqueLock lock(mutex_);
  for (;;) {
    if (job->deleted || stopping_) return false;
    if (options_.max_record_lines == 0 || job->lines.size() < options_.max_record_lines) break;
    // At the ceiling: trim the front line once every attached streamer
    // is past it (a detached window replays from the cache), otherwise
    // wait for a streamer to advance, detach, or the job to be deleted.
    // No deadlock: with no streamers the trim always applies, and an
    // attached streamer either advances/detaches (notifying space_) or
    // is itself the backpressure the bound exists to exert.
    bool trimmable = true;
    for (const auto& [token, cursor] : job->cursors) {
      if (cursor <= job->lines_base) {
        trimmable = false;
        break;
      }
    }
    if (trimmable) {
      job->lines.pop_front();
      ++job->lines_base;
      job_metrics().record_lines.add(-1);
      continue;
    }
    space_.wait(lock, mutex_);
  }
  job->lines.push_back(std::move(line));
  ++job->lines_total;
  job_metrics().record_lines.add(1);
  changed_.notify_all();
  return true;
}

void JobManager::executor_loop() {
  UniqueLock lock(mutex_);
  for (;;) {
    std::shared_ptr<Job> job;
    while (!stopping_ && !job) {
      while (!queue_.empty() && !job) {
        const std::uint64_t id = queue_.front();
        queue_.pop_front();
        const auto it = jobs_.find(id);
        // Deleted-while-queued jobs were erased from the map; their
        // queue entry is skipped here.
        if (it != jobs_.end() && it->second->state == JobState::queued) job = it->second;
      }
      if (!job) changed_.wait(lock, mutex_);
    }
    if (stopping_) return;  // queued jobs are abandoned on shutdown
    job->state = JobState::running;
    job->start_ns = obs::monotonic_ns();
    // Registry lock nests briefly inside ours; the registry never waits
    // on a job-manager lock, so the order cannot invert.
    job->counters_at_start = obs::MetricsRegistry::global().counter_values();
    job_metrics().queued.add(-1);
    job_metrics().running.add(1);
    changed_.notify_all();
    lock.unlock();
    run_job(job);
    lock.lock();
    changed_.notify_all();
  }
}

void JobManager::run_job(const std::shared_ptr<Job>& job) {
  JobMetrics& metrics = job_metrics();
  const obs::TraceSpan span(
      [&] { return "job " + std::to_string(job->id) + " " + job->request.experiment; });
  const obs::ScopedTimer timer(metrics.run_seconds);
  const auto finish = [&](JobState state, const std::string& error) {
    const std::uint64_t finish_ns = obs::monotonic_ns();
    const auto counters = obs::MetricsRegistry::global().counter_values();
    metrics.running.add(-1);
    (state == JobState::completed ? metrics.finished_ok : metrics.finished_err).add(1);
    const LockGuard lock(mutex_);
    job->state = state;
    job->error = error;
    job->finish_ns = finish_ns;
    job->counter_deltas = counter_delta(job->counters_at_start, counters);
    // A deleted job is no longer held by the manager; only its executor
    // bookkeeping (above) applies.
    if (!job->deleted) (state == JobState::completed ? metrics.completed : metrics.failed).add(1);
  };
  try {
    const engine::Experiment& experiment = registry_.find(job->request.experiment);
    const engine::FigurePlan plan = experiment.build(job->request.options);
    const std::vector<engine::PlannedScenario> planned = engine::flatten_plan(plan);
    const EvalMath math = job->request.options.eval_math;

    // Probe the result cache per flatten-plan position. Only the misses
    // go to the engine; hits replay their bytes at their positions, so
    // the merged stream is byte-identical to a cold run. lookup() does
    // the hit/miss counting: a fully cached job shows
    // hits == total_scenarios and an empty evaluator counter delta.
    std::vector<RecordPos> positions(planned.size());
    std::vector<std::string> slugs;
    std::vector<engine::ScenarioSpec> miss_specs;
    std::vector<std::size_t> miss_positions;
    for (std::size_t i = 0; i < planned.size(); ++i) {
      if (slugs.empty() || slugs.back() != planned[i].panel) slugs.push_back(planned[i].panel);
      const ResultCacheKey key = ResultCacheKey::of(planned[i].spec, math);
      positions[i] = RecordPos{key.hash, static_cast<std::uint32_t>(slugs.size() - 1)};
      if (!cache_.lookup(key)) {
        miss_specs.push_back(planned[i].spec);
        miss_positions.push_back(i);
      }
    }
    {
      // Publish the replay metadata before the first record; immutable
      // afterwards, so the producer below reads it without the lock.
      const LockGuard lock(mutex_);
      job->positions = std::move(positions);
      job->slugs = std::move(slugs);
    }

    bool live = true;           // false once the job is deleted/stopping
    bool replay_failed = false;
    std::size_t emitted = 0;    // stream positions appended so far
    // Appends the cache-hit positions in [emitted, end) — every position
    // there that is not a pending miss is a hit, and misses below
    // `emitted` were appended by the callback that reached them.
    const auto emit_hits_up_to = [&](std::size_t end) {
      for (; emitted < end && live; ++emitted) {
        const RecordPos pos = job->positions[emitted];
        const std::optional<std::string> body = cache_.fetch(pos.key_hash);
        if (!body) {
          // A bounded cache evicted a hit between probe and emit; the
          // stream cannot be completed faithfully.
          live = false;
          replay_failed = true;
          return;
        }
        std::string line =
            engine::record_json_prefix(job->request.experiment, job->slugs[pos.slug]);
        line += *body;
        line += '\n';
        live = append_line(job, std::move(line));
      }
    };

    // The engine's ordered callback serializes deliveries in miss order;
    // cached positions between two misses are interleaved here so the
    // stream grows strictly in flatten-plan order, live.
    const auto on_miss = [&](std::size_t index, const engine::ScenarioResult& result) {
      const std::size_t pos = miss_positions[index];
      if (live) emit_hits_up_to(pos);
      const ResultCacheKey key = ResultCacheKey::of(result.spec, math);
      const std::string body = engine::record_body_json(result);
      // Insert BEFORE appending (a deleted job still warms the cache):
      // every buffered line is replayable the moment it exists.
      cache_.insert(key, body);
      if (!live) return;
      std::string line =
          engine::record_json_prefix(job->request.experiment, job->slugs[job->positions[pos].slug]);
      line += body;
      line += '\n';
      live = append_line(job, std::move(line));
      if (live) emitted = pos + 1;
    };
    if (!miss_specs.empty()) engine_.run(miss_specs, on_miss, math);
    if (live) emit_hits_up_to(job->positions.size());
    if (replay_failed) {
      throw Error(
          "a cached record was evicted while its job was assembling; raise the result cache's "
          "max_entries");
    }
    finish(JobState::completed, {});
  } catch (const std::exception& e) {
    finish(JobState::failed, e.what());
  }
}

void JobManager::stop() {
  {
    const LockGuard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  changed_.notify_all();
  space_.notify_all();
  for (std::thread& executor : executors_) {
    if (executor.joinable()) executor.join();
  }
  // Release every buffered record line so the process-wide record-lines
  // gauge does not keep counting buffers of a destroyed manager.
  const LockGuard lock(mutex_);
  for (auto& [id, job] : jobs_) drop_lines_locked(*job);
}

}  // namespace fpsched::service
