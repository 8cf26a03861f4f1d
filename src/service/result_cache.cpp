#include "service/result_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "engine/result_sink.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "support/error.hpp"

namespace fpsched::service {

namespace {

/// Registered once per process; every ResultCache instance shares the
/// families (the registry dedupes by name), so the entries gauge tracks
/// live entries across all caches via add() deltas.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Gauge& entries;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    return CacheMetrics{
        reg.counter("fpsched_result_cache_hits_total",
                    "Scenario results served from the content-addressed cache"),
        reg.counter("fpsched_result_cache_misses_total",
                    "Scenario cache lookups that required an evaluator run"),
        reg.counter("fpsched_result_cache_inserts_total",
                    "Scenario results stored in the cache (excludes restored entries)"),
        reg.gauge("fpsched_result_cache_entries",
                  "Scenario results currently held in the cache"),
    };
  }();
  return metrics;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string segment_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "segment-%06zu.ndjson", index);
  return buf;
}

/// "segment-NNNNNN.ndjson" -> NNNNNN; nullopt for anything else.
std::optional<std::size_t> parse_segment_index(std::string_view name) {
  constexpr std::string_view prefix = "segment-";
  constexpr std::string_view suffix = ".ndjson";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::size_t index = 0;
  const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (ec != std::errc() || end != digits.data() + digits.size()) return std::nullopt;
  return index;
}

}  // namespace

ResultCacheKey ResultCacheKey::of(const engine::ScenarioSpec& spec) {
  ResultCacheKey key;
  key.canonical = engine::canonical_spec_string(spec);
  key.hash = engine::fnv1a64(key.canonical);
  return key;
}

ResultCache::ResultCache(ResultCacheOptions options) : options_(std::move(options)) {
  if (!options_.directory.empty()) {
    engine::ensure_output_directory(options_.directory);
    load_segments();
  }
}

ResultCache::~ResultCache() {
  LockGuard lock(mutex_);
  cache_metrics().entries.add(-static_cast<std::int64_t>(entries_.size()));
}

RecordBody ResultCache::lookup(const ResultCacheKey& key) {
  LockGuard lock(mutex_);
  const auto it = entries_.find(key.hash);
  // Canonical verification: a 64-bit hash collision (or a corrupted
  // segment line that still hashed consistently) degrades to a miss
  // instead of serving another scenario's bytes.
  if (it == entries_.end() || it->second.canonical != key.canonical) {
    cache_metrics().misses.add();
    return nullptr;
  }
  cache_metrics().hits.add();
  return it->second.body;
}

void ResultCache::insert(const ResultCacheKey& key, RecordBody body) {
  LockGuard lock(mutex_);
  insert_locked(key, std::move(body), /*persist=*/true);
}

std::size_t ResultCache::size() const {
  LockGuard lock(mutex_);
  return entries_.size();
}

void ResultCache::insert_locked(const ResultCacheKey& key, RecordBody body, bool persist) {
  // First write wins; entries are immutable.
  const auto [it, inserted] = entries_.try_emplace(key.hash, Entry{key.canonical, std::move(body)});
  if (!inserted) return;
  auto& metrics = cache_metrics();
  metrics.entries.add(1);
  if (persist) {
    metrics.inserts.add();
    if (!options_.directory.empty()) append_segment_locked(key, *it->second.body);
  }
}

void ResultCache::append_segment_locked(const ResultCacheKey& key, std::string_view payload) {
  if (!segment_.is_open()) {
    segment_.open(std::filesystem::path(options_.directory) / segment_name(next_segment_index_),
                  std::ios::app);
  }
  // A failed segment (disk full, directory removed) downgrades to
  // memory-only persistence rather than failing the job that produced
  // the record — the in-memory entry is already correct.
  if (!segment_.good()) return;
  segment_ << "{\"key\":\"" << hex64(key.hash)
           << "\",\"spec\":" << engine::json_quote(key.canonical)
           << ",\"payload\":" << engine::json_quote(payload) << "}\n";
  segment_.flush();
}

void ResultCache::load_segments() {
  // Replay every segment in name order (zero-padded indices, so lexical
  // order is creation order; first write wins on duplicates). Lines that
  // fail to parse, lack a field, or whose spec does not hash back to the
  // stored key — torn tail writes, manual edits — are skipped.
  std::map<std::size_t, std::filesystem::path> segments;
  std::error_code ec;
  for (const auto& dir_entry : std::filesystem::directory_iterator(options_.directory, ec)) {
    const auto index = parse_segment_index(dir_entry.path().filename().string());
    if (index) segments.emplace(*index, dir_entry.path());
  }
  LockGuard lock(mutex_);
  for (const auto& [index, path] : segments) {
    next_segment_index_ = std::max(next_segment_index_, index + 1);
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        const std::map<std::string, std::string> fields = parse_flat_json(line);
        const auto key_it = fields.find("key");
        const auto spec_it = fields.find("spec");
        const auto payload_it = fields.find("payload");
        if (key_it == fields.end() || spec_it == fields.end() || payload_it == fields.end()) {
          continue;
        }
        std::uint64_t hash = 0;
        const std::string& hex = key_it->second;
        const auto [end, parse_ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), hash, 16);
        if (parse_ec != std::errc() || end != hex.data() + hex.size()) continue;
        if (engine::fnv1a64(spec_it->second) != hash) continue;
        const std::size_t before = entries_.size();
        ResultCacheKey key;
        key.hash = hash;
        key.canonical = spec_it->second;
        insert_locked(key, std::make_shared<const std::string>(payload_it->second),
                      /*persist=*/false);
        if (entries_.size() > before) ++restored_;
      } catch (const Error&) {
        continue;
      }
    }
  }
}

}  // namespace fpsched::service
