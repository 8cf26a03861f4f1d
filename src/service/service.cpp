#include "service/service.hpp"

#include <cctype>
#include <cstdio>

#include "engine/result_sink.hpp"
#include "obs/metrics.hpp"
#include "support/parse.hpp"
#include "support/version.hpp"

namespace fpsched::service {

using engine::json_quote;

JobRequest parse_job_request(const std::map<std::string, std::string>& params) {
  std::map<std::string, std::string> options = params;
  JobRequest request;
  if (auto experiment = options.extract("experiment")) request.experiment = experiment.mapped();
  if (request.experiment.empty()) {
    throw InvalidArgument("missing required parameter 'experiment' (see GET /experiments)");
  }
  // The rest is the option table's: server resources (threads) are no
  // row of it, so they are unknown keys like any typo.
  request.options = engine::read_figure_options(options);
  return request;
}

// --- Flat JSON bodies --------------------------------------------------

namespace {

/// Cursor over a JSON text; parses just the flat-object subset the run
/// endpoint documents.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  std::map<std::string, std::string> parse() {
    std::map<std::string, std::string> params;
    skip_whitespace();
    expect('{', "an object");
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return finish(params);
    }
    for (;;) {
      skip_whitespace();
      const std::string key = parse_string("an object key");
      skip_whitespace();
      expect(':', "':' after the key");
      skip_whitespace();
      params[key] = parse_scalar_or_array(key);
      skip_whitespace();
      const char c = next("',' or '}'");
      if (c == '}') return finish(params);
      if (c != ',') fail("expected ',' or '}'");
    }
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw InvalidArgument("malformed JSON body at byte " + std::to_string(pos_) + ": " + message);
  }

  std::map<std::string, std::string> finish(std::map<std::string, std::string>& params) {
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after the object");
    return params;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char next(const std::string& expected) {
    if (pos_ >= text_.size()) fail("unexpected end (wanted " + expected + ")");
    return text_[pos_++];
  }

  void expect(char c, const std::string& what) {
    if (next(what) != c) fail("expected " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string parse_string(const std::string& what) {
    expect('"', what);
    std::string out;
    for (;;) {
      const char c = next("a closing '\"'");
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char escape = next("an escape character");
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default: fail("unsupported string escape '\\" + std::string(1, escape) + "'");
      }
    }
  }

  /// A bare number/true/false/null token, returned as raw text.
  std::string parse_token() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    if (token == "null") return "";
    return token;
  }

  std::string parse_scalar() {
    if (peek() == '"') return parse_string("a string value");
    if (peek() == '{' || peek() == '[') fail("nested objects/arrays are not supported");
    return parse_token();
  }

  std::string parse_scalar_or_array(const std::string& key) {
    if (peek() != '[') return parse_scalar();
    ++pos_;  // '['
    std::string joined;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return joined;
    }
    for (;;) {
      skip_whitespace();
      if (!joined.empty()) joined += ',';
      joined += parse_scalar();
      skip_whitespace();
      const char c = next("',' or ']' in the '" + key + "' array");
      if (c == ']') return joined;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, std::string> parse_flat_json(std::string_view body) {
  return FlatJsonParser(body).parse();
}

std::string to_json(const JobStatus& status) {
  std::string out = "{\"id\":" + std::to_string(status.id) +
                    ",\"experiment\":" + json_quote(status.experiment) +
                    ",\"state\":" + json_quote(to_string(status.state)) +
                    ",\"records\":" + std::to_string(status.records) +
                    ",\"total_scenarios\":" + std::to_string(status.total_scenarios) +
                    ",\"records_path\":" + json_quote("/runs/" + std::to_string(status.id) +
                                                     "/records");
  if (!status.error.empty()) out += ",\"error\":" + json_quote(status.error);
  out += '}';
  return out;
}

namespace {

/// Nanoseconds as decimal seconds with microsecond precision — plenty
/// for queue/run durations, and fixed-width so the JSON is easy to eye.
std::string seconds_json(std::uint64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6f", static_cast<double>(ns) * 1e-9);
  return buffer;
}

}  // namespace

std::string to_json(const JobStats& stats) {
  std::string out = to_json(stats.status);
  out.pop_back();  // re-open the status object to append the stats fields
  out += ",\"queued_seconds\":";
  out += seconds_json(stats.queued_ns);
  out += ",\"run_seconds\":";
  out += seconds_json(stats.run_ns);
  out += ",\"metrics_delta\":{";
  bool first = true;
  for (const auto& [name, delta] : stats.counter_deltas) {
    if (!first) out += ',';
    first = false;
    out += json_quote(name);
    out += ':';
    out += std::to_string(delta);
  }
  out += "}}";
  return out;
}

// --- ExperimentService -------------------------------------------------

ExperimentService::ExperimentService(ServiceOptions options,
                                     const engine::ExperimentRegistry& registry)
    : registry_(registry),
      jobs_(registry, options.jobs),
      http_(options.http),
      start_ns_(obs::monotonic_ns()) {
  obs::MetricsRegistry::global()
      .gauge("fpsched_info", "build information", "version=\"" + std::string(kVersion) + "\"")
      .set(1);
  register_routes();
}

ExperimentService::~ExperimentService() { stop(); }

void ExperimentService::start() { http_.start(); }

void ExperimentService::stop() {
  // Jobs first: that wakes blocked record streamers, so the HTTP drain
  // below finishes promptly instead of waiting out a long run.
  jobs_.stop();
  http_.stop();
}

namespace {

std::optional<std::uint64_t> parse_job_id(const std::string& text) {
  try {
    return parse_u64(text, "id");
  } catch (const InvalidArgument&) {
    return std::nullopt;  // an unparseable id is just an unknown run
  }
}

}  // namespace

void ExperimentService::register_routes() {
  http_.route("GET", "/healthz", [this](const HttpRequest&, HttpResponseWriter& writer) {
    const std::uint64_t uptime_s = (obs::monotonic_ns() - start_ns_) / 1'000'000'000;
    std::string body = "{\"status\":\"ok\",\"version\":";
    body += json_quote(kVersion);
    body += ",\"uptime_seconds\":";
    body += std::to_string(uptime_s);
    body += ",\"jobs\":";
    body += std::to_string(jobs_.job_count());
    body += ",\"active_jobs\":";
    body += std::to_string(jobs_.active_count());
    body += "}\n";
    writer.respond(200, "application/json", body);
  });

  http_.route("GET", "/metrics", [this](const HttpRequest&, HttpResponseWriter& writer) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.gauge("fpsched_uptime_seconds", "seconds since service start")
        .set(static_cast<std::int64_t>((obs::monotonic_ns() - start_ns_) / 1'000'000'000));
    writer.respond(200, "text/plain; version=0.0.4; charset=utf-8", registry.prometheus());
  });

  http_.route("GET", "/experiments", [this](const HttpRequest&, HttpResponseWriter& writer) {
    std::string body = "[";
    bool first = true;
    for (const engine::Experiment* experiment : registry_.experiments()) {
      if (!first) body += ',';
      first = false;
      body += "{\"name\":" + json_quote(experiment->name) +
              ",\"summary\":" + json_quote(experiment->summary) + "}";
    }
    body += "]\n";
    writer.respond(200, "application/json", body);
  });

  http_.route("POST", "/runs", [this](const HttpRequest& request, HttpResponseWriter& writer) {
    // Body params first, query params on top (query wins on conflict),
    // so `curl -d '{"experiment":"fig2"}' '/runs?quick=1'` does what it
    // reads like.
    std::map<std::string, std::string> params;
    if (!request.body.empty()) params = parse_flat_json(request.body);
    for (const auto& [key, value] : request.query_params()) params[key] = value;
    std::uint64_t id = 0;
    try {
      id = jobs_.submit(parse_job_request(params));
    } catch (const TooManyJobs& e) {
      writer.respond(429, "application/json", "{\"error\":" + json_quote(e.what()) + "}\n");
      return;
    }
    writer.respond(201, "application/json", to_json(*jobs_.status(id)) + "\n");
  });

  http_.route("GET", "/runs", [this](const HttpRequest&, HttpResponseWriter& writer) {
    std::string body = "[";
    bool first = true;
    for (const JobStatus& status : jobs_.jobs()) {
      if (!first) body += ',';
      first = false;
      body += to_json(status);
    }
    body += "]\n";
    writer.respond(200, "application/json", body);
  });

  http_.route("GET", "/runs/{id}", [this](const HttpRequest& request,
                                          HttpResponseWriter& writer) {
    const auto id = parse_job_id(request.path_params.at("id"));
    const auto status = id ? jobs_.status(*id) : std::nullopt;
    if (!status) {
      writer.respond(404, "application/json", "{\"error\":\"no such run\"}\n");
      return;
    }
    writer.respond(200, "application/json", to_json(*status) + "\n");
  });

  http_.route("GET", "/runs/{id}/stats", [this](const HttpRequest& request,
                                                HttpResponseWriter& writer) {
    const auto id = parse_job_id(request.path_params.at("id"));
    const auto stats = id ? jobs_.stats(*id) : std::nullopt;
    if (!stats) {
      writer.respond(404, "application/json", "{\"error\":\"no such run\"}\n");
      return;
    }
    writer.respond(200, "application/json", to_json(*stats) + "\n");
  });

  http_.route("DELETE", "/runs/{id}", [this](const HttpRequest& request,
                                             HttpResponseWriter& writer) {
    const auto id = parse_job_id(request.path_params.at("id"));
    const auto status = id ? jobs_.erase_job(*id) : std::nullopt;
    if (!status) {
      writer.respond(404, "application/json", "{\"error\":\"no such run\"}\n");
      return;
    }
    writer.respond(200, "application/json", to_json(*status) + "\n");
  });

  http_.route("GET", "/runs/{id}/records", [this](const HttpRequest& request,
                                                  HttpResponseWriter& writer) {
    const auto id = parse_job_id(request.path_params.at("id"));
    if (!id || !jobs_.status(*id)) {
      writer.respond(404, "application/json", "{\"error\":\"no such run\"}\n");
      return;
    }
    // Live stream: each record is one chunk, so the client sees results
    // as scenarios complete; the concatenated chunks are byte-identical
    // to the fpsched_run NDJSON file. A disconnected client makes
    // write_chunk return false and the stream winds down server-side.
    if (!writer.begin_chunked(200, "application/x-ndjson")) return;
    const auto result = jobs_.stream_records(
        *id, [&](std::string_view line) { return writer.write_chunk(line); });
    // A stream that did not deliver every record of a completed job (the
    // job failed or was deleted mid-stream, or the server is shutting
    // down) is truncated data: abandon it without the clean 0-chunk so
    // the client's HTTP layer flags it, instead of handing over a
    // well-formed stream that is silently missing records.
    if (!result || !result->delivered_all || result->status.state != JobState::completed) {
      writer.abort_stream();
    }
  });
}

}  // namespace fpsched::service
