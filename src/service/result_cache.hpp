// Content-addressed scenario result cache for the HTTP service.
//
// Overlapping POST /runs traffic — many clients re-running the paper's
// figures with shared sub-grids — recomputes identical scenarios from
// scratch. This cache maps a ResultCacheKey (the canonical serialization
// of the FULL ScenarioSpec, evaluator algorithm included — a strict
// superset of the engine's InstanceKey, which deliberately omits the
// failure model, cost model, policy and algorithm) to the finished
// per-scenario NDJSON record body (record_body_json), so a repeat
// scenario replays its bytes instead of re-running the evaluator. Because
// every record is a pure function of its spec, cached and recomputed
// responses are byte-identical by construction.
//
// Bodies are shared and immutable: lookup() hands out the stored pointer
// itself, so every job and reader streaming a record holds the one copy
// the cache holds. Entries are never evicted; the cache grows with the
// distinct scenarios the server has computed.
//
// Persistence: with a directory configured, inserts append to an on-disk
// NDJSON segment store (`segment-NNNNNN.ndjson`, append-only; one new
// segment per cache, opened at its first insert) and the ctor rebuilds
// the in-memory index by replaying every segment — so the cache survives
// server restarts. Malformed lines (torn tail writes after a crash) are
// skipped, not fatal.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "engine/scenario.hpp"
#include "support/sync.hpp"

namespace fpsched::service {

/// The identity of one cached record body: the canonical spec text
/// (canonical_spec_string) and its 64-bit FNV-1a hash. The hash indexes;
/// the canonical string is stored alongside every entry and verified on
/// lookup, so a hash collision degrades to a miss instead of serving
/// another scenario's bytes.
struct ResultCacheKey {
  std::uint64_t hash = 0;
  std::string canonical;

  static ResultCacheKey of(const engine::ScenarioSpec& spec);
};

struct ResultCacheOptions {
  /// Segment-store directory; empty = memory-only (the cache still
  /// serves repeat traffic, but dies with the process).
  std::string directory = {};
};

/// One immutable record body, shared by the cache and every job stream
/// that holds it.
using RecordBody = std::shared_ptr<const std::string>;

/// Thread-safe (one mutex; lookups hand out a shared pointer, never a
/// copy). Shared by every JobManager executor of the service.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The stored record body for `key` after verifying the canonical text,
  /// or null on a miss; counts a hit or a miss.
  RecordBody lookup(const ResultCacheKey& key) EXCLUDES(mutex_);

  /// Stores `body` under `key` (no-op when present — first write wins,
  /// entries are immutable) and appends it to the segment store when one
  /// is configured.
  void insert(const ResultCacheKey& key, RecordBody body) EXCLUDES(mutex_);

  std::size_t size() const EXCLUDES(mutex_);

  /// Entries restored from disk by the constructor (restart telemetry).
  std::size_t restored() const { return restored_; }

 private:
  struct Entry {
    std::string canonical;
    RecordBody body;
  };

  void insert_locked(const ResultCacheKey& key, RecordBody body, bool persist) REQUIRES(mutex_);
  void append_segment_locked(const ResultCacheKey& key, std::string_view payload)
      REQUIRES(mutex_);
  void load_segments();

  ResultCacheOptions options_;
  std::size_t restored_ = 0;

  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_ GUARDED_BY(mutex_);
  std::ofstream segment_ GUARDED_BY(mutex_);
  std::size_t next_segment_index_ GUARDED_BY(mutex_) = 1;
};

}  // namespace fpsched::service
