// Dependency-free metrics: named counters, gauges, and fixed-bucket
// histograms behind a process-wide registry.
//
// The contract that makes telemetry safe in this codebase is that it can
// NEVER perturb the deterministic output path: a metric update is a
// relaxed atomic on pre-registered storage — no allocation, no lock, no
// clock read, no floating-point state shared with the evaluator — so
// instrumented code produces byte-identical records with metrics on or
// off (tier-1 enforces this). The registry's Mutex (sync.hpp, so the
// thread-safety gate covers it) is taken only at registration and at
// snapshot/exposition time; hot paths cache the returned references in
// function-local statics and never touch the registry again.
//
// Exposition: prometheus() renders the text format served by
// GET /metrics; json() renders the same data for the --stats flag.
// GET /runs/{id}/stats serves a job's counter deltas instead: the
// service takes counter_values() snapshots and renders them itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/sync.hpp"

namespace fpsched::obs {

/// Monotonic nanoseconds (steady clock). The ONLY sanctioned wall-clock
/// read for src/core and src/engine code — the determinism lint's
/// wall-clock rule forbids direct *_clock::now() there and exempts this
/// layer.
std::uint64_t monotonic_ns();

/// Monotonically increasing event count. All operations are relaxed
/// atomics: safe from any thread, invisible to the deterministic path.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up and down (queue depths, jobs by state).
class Gauge {
 public:
  void set(std::int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }

  /// Raises the gauge to `candidate` when larger (high-water marks).
  void set_max(std::int64_t candidate) {
    std::int64_t current = value_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !value_.compare_exchange_weak(current, candidate, std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram (Prometheus-style cumulative `le` buckets plus
/// an implicit +Inf bucket, a count, and a sum). Bounds are fixed at
/// registration; observe() is a linear scan over <= a couple dozen
/// bounds plus three relaxed atomic updates.
class Histogram {
 public:
  /// `bounds` must be finite and strictly increasing.
  explicit Histogram(std::span<const double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket `i` (bounds().size() == the +Inf
  /// bucket). Snapshot reads are relaxed: a concurrent scrape may see a
  /// torn count/sum pair, which is fine for telemetry.
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1 (last = +Inf)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double bits; CAS-add (works pre-C++20 fetch_add)
};

/// Default latency buckets (seconds): 100us .. 10s, roughly 1-2.5-5 per
/// decade — wide enough for both a /healthz round trip and a full
/// scenario evaluation.
std::span<const double> latency_buckets_seconds();

/// Name -> metric registry with stable addresses. Metrics are identified
/// by (name, labels): registering the same pair twice returns the same
/// object (so independent translation units can share a metric), while a
/// different labels string under one name creates a sibling sample of
/// the same family. The mutex is held only here and in the snapshot
/// methods — never on a metric update.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `labels` is the raw Prometheus label body, e.g.
  /// `route="/runs",status="200"` (empty = unlabeled). Throws Error when
  /// the (name, labels) pair is already registered as a different type.
  Counter& counter(std::string_view name, std::string_view help, std::string_view labels = {})
      EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name, std::string_view help, std::string_view labels = {})
      EXCLUDES(mutex_);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::span<const double> bounds, std::string_view labels = {})
      EXCLUDES(mutex_);

  /// Prometheus text exposition (families in registration order, one
  /// HELP/TYPE header per family).
  std::string prometheus() const EXCLUDES(mutex_);

  /// The same data as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string json() const EXCLUDES(mutex_);

  /// Every counter as ("name{labels}", value), registration order — the
  /// snapshot/delta primitive behind per-job metrics_delta.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const EXCLUDES(mutex_);

  /// The process-wide registry every instrumented layer reports into.
  static MetricsRegistry& global();

 private:
  enum class Type : std::uint8_t { counter, gauge, histogram };

  struct Entry {
    std::string name;
    std::string labels;
    std::string help;
    Type type = Type::counter;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> hist;
  };

  Entry& find_or_add(std::string_view name, std::string_view help, std::string_view labels,
                     Type type) REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mutex_);
};

/// RAII scope timer: on destruction observes the elapsed seconds into
/// `seconds` (when non-null) and adds the elapsed nanoseconds to `ns`
/// (when non-null). Reads the clock through monotonic_ns(), keeping the
/// instrumented layers free of direct clock calls.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* seconds, Counter* ns = nullptr)
      : seconds_(seconds), ns_(ns), start_ns_(monotonic_ns()) {}
  explicit ScopedTimer(Histogram& seconds) : ScopedTimer(&seconds) {}
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* seconds_;
  Counter* ns_;
  std::uint64_t start_ns_;
};

}  // namespace fpsched::obs
