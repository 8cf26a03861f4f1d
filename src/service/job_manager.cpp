#include "service/job_manager.hpp"

#include <map>
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
                                      "terminal jobs dropped by count eviction"),
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
  // Validate the whole request up front — the registry lookup, the
  // option table's range checks, the plan build and flatten (which
  // validates every grid), and the instance ceiling all throw
  // InvalidArgument with a message worth relaying to the client — so a
  // bad request fails the submission, never the executor.
  const engine::Experiment& experiment = registry_.find(request.experiment);
  engine::check_figure_options(request.options);
  std::vector<engine::PlannedScenario> planned =
      engine::flatten_plan(experiment.build(request.options));
  for (const engine::PlannedScenario& position : planned) {
    if (position.spec.task_count > options_.max_task_count) {
      throw InvalidArgument("requested instance of " + std::to_string(position.spec.task_count) +
                            " tasks exceeds the server's --max-task-count ceiling of " +
                            std::to_string(options_.max_task_count));
    }
  }

  const std::uint64_t now = obs::monotonic_ns();
  const LockGuard lock(mutex_);
  if (stopping_) throw InvalidArgument("the job manager is shutting down");
  evict_locked();
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
  job->total_scenarios = planned.size();
  job->planned = std::move(planned);
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
  status.records = job.produced;
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

void JobManager::evict_locked() {
  JobMetrics& metrics = job_metrics();
  std::size_t finished = 0;
  for (const auto& [id, job] : jobs_) {
    if (terminal(*job)) ++finished;
  }
  // Oldest terminal jobs first (map order is id order). Queued and
  // running jobs are never candidates.
  for (auto it = jobs_.begin(); finished > options_.max_jobs && it != jobs_.end();) {
    auto next = std::next(it);
    if (terminal(*it->second)) {
      (it->second->state == JobState::completed ? metrics.completed : metrics.failed).add(-1);
      metrics.evicted.add(1);
      // Attached streamers keep the Job, and its bodies, alive through
      // their shared_ptr and finish their streams.
      jobs_.erase(it);
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
  jobs_.erase(it);
  changed_.notify_all();
  return snapshot;
}

std::optional<StreamResult> JobManager::stream_records(
    std::uint64_t id, const std::function<bool(std::string_view line)>& write) const {
  UniqueLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  // The shared_ptr keeps the Job, and every body it streams, valid across
  // DELETE/eviction while we stream.
  const std::shared_ptr<Job> job = it->second;
  std::size_t sent = 0;
  std::string line;
  for (;;) {
    while (sent < job->produced && !job->deleted && !stopping_) {
      // Take the body pointer under the lock; render and write without it,
      // so a slow client never delays the executor or another reader.
      const RecordBody body = job->bodies[sent];
      const std::string& prefix = job->prefixes[job->panel_of[sent]];
      lock.unlock();
      line.assign(prefix);
      line += *body;
      line += '\n';
      const bool alive = write(line);
      lock.lock();
      ++sent;
      if (!alive) return StreamResult{snapshot_locked(*job), false};
    }
    const bool drained = sent == job->produced;
    if (job->deleted || stopping_ || (terminal(*job) && drained)) {
      return StreamResult{snapshot_locked(*job), !job->deleted && terminal(*job) && drained};
    }
    changed_.wait(lock, mutex_);
  }
}

void JobManager::advance_locked(Job& job) {
  while (job.produced < job.bodies.size() && job.bodies[job.produced]) ++job.produced;
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
    std::vector<engine::PlannedScenario> planned;
    {
      const LockGuard lock(mutex_);
      planned = std::move(job->planned);
    }

    // Probe the result cache per flatten-plan position: a hit's body goes
    // into the stream as is, and only the misses go to the engine.
    // lookup() does the hit/miss counting: a fully cached job shows
    // hits == total_scenarios and an empty evaluator counter delta.
    std::vector<RecordBody> bodies(planned.size());
    std::vector<std::string> prefixes;
    std::vector<std::uint32_t> panel_of(planned.size());
    std::vector<engine::ScenarioSpec> miss_specs;
    std::vector<std::size_t> miss_positions;
    for (std::size_t i = 0; i < planned.size(); ++i) {
      if (i == 0 || planned[i].panel != planned[i - 1].panel) {
        prefixes.push_back(engine::record_json_prefix(job->request.experiment, planned[i].panel));
      }
      panel_of[i] = static_cast<std::uint32_t>(prefixes.size() - 1);
      bodies[i] = cache_.lookup(ResultCacheKey::of(planned[i].spec));
      if (!bodies[i]) {
        miss_specs.push_back(planned[i].spec);
        miss_positions.push_back(i);
      }
    }
    {
      // Publish the stream; the hits before the first miss are readable
      // at once.
      const LockGuard lock(mutex_);
      job->bodies = std::move(bodies);
      job->prefixes = std::move(prefixes);
      job->panel_of = std::move(panel_of);
      advance_locked(*job);
      changed_.notify_all();
    }

    // The engine's ordered callback serializes deliveries in miss order,
    // so the produced prefix grows strictly in flatten-plan order, live.
    const auto on_miss = [&](std::size_t index, const engine::ScenarioResult& result) {
      // One body, shared by the cache and the stream. The job streams the
      // body it computed even when insert() is a no-op, so no position
      // ever holds bytes read by hash alone. A deleted job still warms
      // the cache.
      const RecordBody body =
          std::make_shared<const std::string>(engine::record_body_json(result));
      cache_.insert(ResultCacheKey::of(result.spec), body);
      const LockGuard lock(mutex_);
      job->bodies[miss_positions[index]] = body;
      advance_locked(*job);
      changed_.notify_all();
    };
    if (!miss_specs.empty()) engine_.run(miss_specs, on_miss);
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
  for (std::thread& executor : executors_) {
    if (executor.joinable()) executor.join();
  }
}

}  // namespace fpsched::service
