#include "obs/metrics.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>

#include "support/error.hpp"
#include "support/table.hpp"

namespace fpsched::obs {

namespace {

// Shortest decimal form that parses back to the same double — keeps
// bucket labels like le="0.001" readable instead of 17-digit dumps —
// with the exposition format's spelling of the non-finite values.
std::string format_shortest(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  return format_double_shortest(value);
}

std::string sample_name(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

}  // namespace

std::uint64_t monotonic_ns() {
  // The one sanctioned clock read (see the header + the determinism
  // lint's wall-clock rule).
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()), buckets_(bounds.size() + 1) {
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    ensure(std::isfinite(bounds_[i]), "histogram bounds must be finite");
    ensure(i == 0 || bounds_[i - 1] < bounds_[i], "histogram bounds must be strictly increasing");
  }
}

void Histogram::observe(double value) {
  std::size_t bucket = bounds_.size();  // +Inf overflow bucket
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Double add via CAS on the bit pattern: atomic<double>::fetch_add is
  // not universally lock-free, and this keeps the member a plain u64.
  std::uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t desired = std::bit_cast<std::uint64_t>(std::bit_cast<double>(observed) + value);
    if (sum_bits_.compare_exchange_weak(observed, desired, std::memory_order_relaxed)) break;
  }
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::span<const double> latency_buckets_seconds() {
  static constexpr double kBuckets[] = {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                                        0.01,   0.025,   0.05,   0.1,   0.25,   0.5,
                                        1.0,    2.5,     5.0,    10.0};
  return kBuckets;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_add(std::string_view name, std::string_view help,
                                                     std::string_view labels, Type type) {
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      ensure(entry->type == type,
             "metric '" + std::string(name) + "' is already registered as a different type");
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = std::string(labels);
  entry->help = std::string(help);
  entry->type = type;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::string_view labels) {
  const LockGuard lock(mutex_);
  return find_or_add(name, help, labels, Type::counter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view labels) {
  const LockGuard lock(mutex_);
  return find_or_add(name, help, labels, Type::gauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                      std::span<const double> bounds, std::string_view labels) {
  const LockGuard lock(mutex_);
  Entry& entry = find_or_add(name, help, labels, Type::histogram);
  if (!entry.hist) entry.hist = std::make_unique<Histogram>(bounds);
  return *entry.hist;
}

std::string MetricsRegistry::prometheus() const {
  const LockGuard lock(mutex_);
  std::string out;
  std::string last_family;
  for (const auto& entry : entries_) {
    if (entry->name != last_family) {
      // One HELP/TYPE header per family; labeled siblings registered
      // consecutively share it. (A family registered in two separated
      // runs would repeat the header, which scrapers tolerate — we keep
      // registration grouped per layer so it does not arise.)
      const char* type_name = entry->type == Type::counter  ? "counter"
                              : entry->type == Type::gauge  ? "gauge"
                                                            : "histogram";
      out += "# HELP " + entry->name + " " + entry->help + "\n";
      out += "# TYPE " + entry->name + " " + type_name + "\n";
      last_family = entry->name;
    }
    switch (entry->type) {
      case Type::counter:
        out += sample_name(entry->name, entry->labels) + " " +
               std::to_string(entry->counter.value()) + "\n";
        break;
      case Type::gauge:
        out += sample_name(entry->name, entry->labels) + " " +
               std::to_string(entry->gauge.value()) + "\n";
        break;
      case Type::histogram: {
        const Histogram& hist = *entry->hist;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
          cumulative += hist.bucket(i);
          std::string labels = entry->labels;
          if (!labels.empty()) labels += ",";
          labels += "le=\"" + format_shortest(hist.bounds()[i]) + "\"";
          out += entry->name + "_bucket{" + labels + "} " + std::to_string(cumulative) + "\n";
        }
        std::string labels = entry->labels;
        if (!labels.empty()) labels += ",";
        labels += "le=\"+Inf\"";
        out += entry->name + "_bucket{" + labels + "} " + std::to_string(hist.count()) + "\n";
        out += sample_name(entry->name + "_sum", entry->labels) + " " +
               format_shortest(hist.sum()) + "\n";
        out += sample_name(entry->name + "_count", entry->labels) + " " +
               std::to_string(hist.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::json() const {
  const LockGuard lock(mutex_);
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const auto& entry : entries_) {
    const std::string key = json_quote(sample_name(entry->name, entry->labels)) + ":";
    switch (entry->type) {
      case Type::counter:
        if (!counters.empty()) counters += ",";
        counters += key + std::to_string(entry->counter.value());
        break;
      case Type::gauge:
        if (!gauges.empty()) gauges += ",";
        gauges += key + std::to_string(entry->gauge.value());
        break;
      case Type::histogram: {
        const Histogram& hist = *entry->hist;
        if (!histograms.empty()) histograms += ",";
        histograms += key + "{\"count\":" + std::to_string(hist.count()) +
                      ",\"sum\":" + format_shortest(hist.sum()) + ",\"buckets\":[";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
          cumulative += hist.bucket(i);
          if (i != 0) histograms += ",";
          histograms += "{\"le\":\"" + format_shortest(hist.bounds()[i]) +
                        "\",\"count\":" + std::to_string(cumulative) + "}";
        }
        if (!hist.bounds().empty()) histograms += ",";
        histograms += "{\"le\":\"+Inf\",\"count\":" + std::to_string(hist.count()) + "}]}";
        break;
      }
    }
  }
  std::string out = "{\"counters\":{";
  out += counters;
  out += "},\"gauges\":{";
  out += gauges;
  out += "},\"histograms\":{";
  out += histograms;
  out += "}}";
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counter_values() const {
  const LockGuard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    if (entry->type != Type::counter) continue;
    out.emplace_back(sample_name(entry->name, entry->labels), entry->counter.value());
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked so instrumented code may report during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

ScopedTimer::~ScopedTimer() {
  const std::uint64_t elapsed = monotonic_ns() - start_ns_;
  if (seconds_ != nullptr) seconds_->observe(static_cast<double>(elapsed) * 1e-9);
  if (ns_ != nullptr) ns_->add(elapsed);
}

}  // namespace fpsched::obs
