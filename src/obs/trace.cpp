#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/sync.hpp"
#include "support/table.hpp"

namespace fpsched::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

// Buffers are recorder-owned (not thread_local objects) so events from
// short-lived engine worker threads survive until export. Each buffer
// has its own mutex: recording threads never contend with each other,
// only with a concurrent export/reset of their own buffer.
struct ThreadBuffer {
  Mutex mutex;
  std::vector<TraceEvent> events GUARDED_BY(mutex);
  std::uint64_t tid = 0;
};

struct Recorder {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> epoch_ns{0};
  Mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers GUARDED_BY(mutex);
};

Recorder& recorder() {
  // Leaked: worker threads may still touch their buffers during static
  // destruction of other objects.
  static Recorder* instance = new Recorder();
  return *instance;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    Recorder& rec = recorder();
    const LockGuard lock(rec.mutex);
    owned->tid = rec.buffers.size() + 1;
    rec.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

// Nanoseconds to the microsecond-unit decimal chrome://tracing expects.
std::string format_us(std::uint64_t ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buffer;
}

}  // namespace

bool tracing_enabled() { return recorder().enabled.load(std::memory_order_relaxed); }

void start_tracing() {
  Recorder& rec = recorder();
  {
    const LockGuard lock(rec.mutex);
    for (const auto& buffer : rec.buffers) {
      const LockGuard buffer_lock(buffer->mutex);
      buffer->events.clear();
    }
  }
  rec.epoch_ns.store(monotonic_ns(), std::memory_order_relaxed);
  rec.enabled.store(true, std::memory_order_release);
}

void stop_tracing() { recorder().enabled.store(false, std::memory_order_release); }

void detail::record_event(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns) {
  ThreadBuffer& buffer = local_buffer();
  const LockGuard lock(buffer.mutex);
  buffer.events.push_back({std::move(name), start_ns, dur_ns});
}

std::string trace_json() {
  Recorder& rec = recorder();
  const std::uint64_t epoch = rec.epoch_ns.load(std::memory_order_relaxed);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const LockGuard lock(rec.mutex);
  for (const auto& buffer : rec.buffers) {
    const LockGuard buffer_lock(buffer->mutex);
    for (const TraceEvent& event : buffer->events) {
      if (!first) out += ",";
      first = false;
      const std::uint64_t relative = event.start_ns >= epoch ? event.start_ns - epoch : 0;
      out += "{\"name\":" + json_quote(event.name) +
             ",\"cat\":\"fpsched\",\"ph\":\"X\",\"ts\":" + format_us(relative) +
             ",\"dur\":" + format_us(event.dur_ns) + ",\"pid\":1,\"tid\":" +
             std::to_string(buffer->tid) + "}";
    }
  }
  out += "]}\n";
  return out;
}

void write_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  ensure(out.good(), "cannot open trace file '" + path + "' for writing");
  out << trace_json();
  out.flush();
  ensure(out.good(), "failed writing trace file '" + path + "'");
}

void TraceSpan::begin(std::string name) {
  name_ = std::move(name);
  start_ns_ = monotonic_ns();
  active_ = true;
}

void TraceSpan::end() {
  // Spans open when tracing stopped are dropped rather than recorded
  // half-measured.
  if (!tracing_enabled()) return;
  const std::uint64_t now = monotonic_ns();
  detail::record_event(std::move(name_), start_ns_, now - start_ns_);
}

}  // namespace fpsched::obs
