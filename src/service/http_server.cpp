#include "service/http_server.hpp"

#include <sys/socket.h>

#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <utility>

#include "engine/result_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace fpsched::service {

namespace {

// Telemetry only (see obs/metrics.hpp). The per-route/status request
// counter is registered lazily per label pair at request completion —
// one registry lookup per request is fine at control-plane traffic.
struct HttpMetrics {
  obs::Histogram& request_seconds;
  obs::Counter& response_bytes;
};

HttpMetrics& http_metrics() {
  static HttpMetrics* metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    return new HttpMetrics{
        reg.histogram("fpsched_http_request_seconds",
                      "wall seconds per request, read to response end",
                      obs::latency_buckets_seconds()),
        reg.counter("fpsched_http_response_bytes_total",
                    "response payload bytes handed to client sockets")};
  }();
  return *metrics;
}

// Request-size ceilings: the service's requests are tiny (query params
// and small JSON bodies), so anything bigger is a client bug or abuse.
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 1024 * 1024;
// Per-connection socket send/receive timeout.
constexpr int kSocketTimeoutSeconds = 30;

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::vector<std::string> split_segments(std::string_view path) {
  std::vector<std::string> segments;
  std::size_t start = 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    segments.emplace_back(path.substr(start, end - start));
    start = end;
  }
  return segments;
}

/// Splits the raw request path on its literal '/' separators, THEN
/// percent-decodes each segment — so encoded bytes (including "%2F")
/// stay inside their segment and can never add or remove a separator.
std::vector<std::string> decoded_segments(std::string_view raw_path) {
  std::vector<std::string> segments = split_segments(raw_path);
  for (std::string& segment : segments) segment = url_decode(segment);
  return segments;
}

std::string lowercased(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trimmed(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) text.remove_suffix(1);
  return text;
}

}  // namespace

std::string url_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '+') {
      out += ' ';
    } else if (text[i] == '%' && i + 2 < text.size() && hex_value(text[i + 1]) >= 0 &&
               hex_value(text[i + 2]) >= 0) {
      out += static_cast<char>(hex_value(text[i + 1]) * 16 + hex_value(text[i + 2]));
      i += 2;
    } else {
      out += text[i];
    }
  }
  return out;
}

std::map<std::string, std::string> parse_query(std::string_view query) {
  std::map<std::string, std::string> params;
  std::size_t start = 0;
  while (start <= query.size()) {
    std::size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view item = query.substr(start, end - start);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        params[url_decode(item)] = "";
      } else {
        params[url_decode(item.substr(0, eq))] = url_decode(item.substr(eq + 1));
      }
    }
    start = end + 1;
  }
  return params;
}

// --- HttpResponseWriter ------------------------------------------------

bool HttpResponseWriter::write_head(int status, std::string_view content_type, bool chunked,
                                    std::size_t content_length) {
  ensure(!started_, "response already started");
  started_ = true;
  chunked_ = chunked;
  status_ = status;
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " + std::string(status_text(status)) +
                     "\r\nContent-Type: " + std::string(content_type) + "\r\nConnection: close\r\n";
  if (chunked) {
    head += "Transfer-Encoding: chunked\r\n";
  } else {
    head += "Content-Length: " + std::to_string(content_length) + "\r\n";
  }
  head += "\r\n";
  if (!send_all(fd_, head)) broken_ = true;
  return !broken_;
}

bool HttpResponseWriter::respond(int status, std::string_view content_type,
                                 std::string_view body) {
  if (!write_head(status, content_type, /*chunked=*/false, body.size())) return false;
  if (!send_all(fd_, body)) {
    broken_ = true;
  } else {
    bytes_sent_ += body.size();
  }
  return !broken_;
}

bool HttpResponseWriter::begin_chunked(int status, std::string_view content_type) {
  return write_head(status, content_type, /*chunked=*/true, 0);
}

bool HttpResponseWriter::write_chunk(std::string_view data) {
  ensure(chunked_, "write_chunk before begin_chunked");
  if (broken_ || finished_) return false;
  if (data.empty()) return true;
  char size_line[32];
  std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
  std::string chunk = size_line;
  chunk += data;
  chunk += "\r\n";
  if (!send_all(fd_, chunk)) {
    broken_ = true;
  } else {
    bytes_sent_ += data.size();
  }
  return !broken_;
}

void HttpResponseWriter::end_chunked() {
  if (!chunked_ || finished_ || broken_) return;
  finished_ = true;
  if (!send_all(fd_, "0\r\n\r\n")) broken_ = true;
}

// --- HttpServer --------------------------------------------------------

HttpServer::HttpServer(HttpServerOptions options) : options_(options) {
  ensure(options_.threads >= 1, "the http server needs at least one worker thread");
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string method, std::string pattern, HttpHandler handler) {
  ensure(!started_, "routes must be registered before start()");
  ensure(static_cast<bool>(handler), "route " + pattern + " needs a handler");
  routes_.push_back({std::move(method), split_segments(pattern), std::move(handler)});
}

void HttpServer::start() {
  ensure(!started_, "the server is already started");
  ignore_sigpipe();
  listener_ = listen_on(options_.port, &bound_port_);
  workers_ = std::make_unique<ThreadPool>(options_.threads);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void HttpServer::stop() {
  if (!started_ || stopped_.exchange(true)) return;
  // Wake the acceptor: shutdown unblocks accept() on Linux; the throwaway
  // self-connect covers platforms where it does not.
  ::shutdown(listener_.get(), SHUT_RDWR);
  try {
    connect_loopback(bound_port_);
  } catch (const Error&) {
    // Already unblocked — nothing to wake.
  }
  if (acceptor_.joinable()) acceptor_.join();
  listener_.reset();
  workers_.reset();  // drains in-flight connections
}

void HttpServer::accept_loop() {
  for (;;) {
    FileDescriptor client = accept_client(listener_.get());
    if (stopped_.load()) return;
    if (!client.valid()) {
      if (stopped_.load()) return;
      // Transient accept failure (aborted connection, or EMFILE while
      // streams hold every descriptor) — back off instead of spinning a
      // core until the condition clears.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    // The worker owns the descriptor; a shared_ptr smuggles the move-only
    // fd through std::function's copyable requirement.
    auto shared = std::make_shared<FileDescriptor>(std::move(client));
    workers_->submit([this, shared] { handle_connection(std::move(*shared)); });
  }
}

namespace {

/// Reads one request off the socket. Returns 0 on success or the HTTP
/// status to fail the connection with.
int read_request(int fd, HttpRequest& request) {
  std::string data;
  std::size_t header_end = std::string::npos;
  char buffer[8192];
  while (header_end == std::string::npos) {
    if (data.size() > kMaxHeaderBytes) return 431;
    const long received = recv_some(fd, buffer, sizeof buffer);
    if (received <= 0) return 408;  // hung up or timed out mid-request
    data.append(buffer, static_cast<std::size_t>(received));
    header_end = data.find("\r\n\r\n");
  }

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = data.find("\r\n");
  const std::string_view line = std::string_view(data).substr(0, line_end);
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos) return 400;
  const std::size_t target_end = line.find(' ', method_end + 1);
  if (target_end == std::string_view::npos) return 400;
  if (line.substr(target_end + 1).substr(0, 5) != "HTTP/") return 400;
  request.method = std::string(line.substr(0, method_end));
  const std::string_view target = line.substr(method_end + 1, target_end - method_end - 1);
  const std::size_t question = target.find('?');
  // The path stays RAW here; routing splits it into segments first and
  // percent-decodes each segment afterwards. Decoding the whole path up
  // front turned an encoded "%2F" inside a captured {id} into a '/'
  // routing separator, changing which route a request matched.
  request.path = std::string(target.substr(0, question));
  if (question != std::string_view::npos) request.query = std::string(target.substr(question + 1));

  // Headers, lowercased names.
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    std::size_t end = data.find("\r\n", pos);
    if (end == std::string::npos || end > header_end) end = header_end;
    const std::string_view header = std::string_view(data).substr(pos, end - pos);
    const std::size_t colon = header.find(':');
    if (colon != std::string_view::npos) {
      request.headers[lowercased(trimmed(header.substr(0, colon)))] =
          std::string(trimmed(header.substr(colon + 1)));
    }
    pos = end + 2;
  }

  // Body by Content-Length (the only framing the service accepts). A
  // chunked request body must be refused, not silently dropped — the
  // handler would otherwise run with half the client's parameters.
  if (request.headers.find("transfer-encoding") != request.headers.end()) return 501;
  std::size_t content_length = 0;
  if (const auto it = request.headers.find("content-length"); it != request.headers.end()) {
    // Full-match std::from_chars, not std::stoul: stoul threw on
    // non-numeric values but silently accepted trailing garbage
    // ("12abc") and wrapped negatives ("-1") into huge lengths. An
    // unsigned from_chars rejects a sign up front, overflow comes back
    // as an error code, and the end-pointer check refuses any trailing
    // bytes — everything malformed is a clean 400.
    const std::string& value = it->second;
    const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(),
                                           content_length);
    if (ec != std::errc() || end != value.data() + value.size()) return 400;
  }
  if (content_length > kMaxBodyBytes) return 413;
  const std::size_t body_start = header_end + 4;
  while (data.size() < body_start + content_length) {
    const long received = recv_some(fd, buffer, sizeof buffer);
    if (received <= 0) return 408;
    data.append(buffer, static_cast<std::size_t>(received));
  }
  request.body = data.substr(body_start, content_length);
  return 0;
}

void send_error(HttpResponseWriter& writer, int status, std::string_view message) {
  writer.respond(status, "application/json",
                 "{\"error\":" + engine::json_quote(message) + "}\n");
}

}  // namespace

const HttpServer::Route* HttpServer::match(const HttpRequest& request, bool* path_known) const {
  const std::vector<std::string> segments = decoded_segments(request.path);
  const Route* found = nullptr;
  for (const Route& route : routes_) {
    if (route.segments.size() != segments.size()) continue;
    bool matches = true;
    for (std::size_t i = 0; i < segments.size() && matches; ++i) {
      const std::string& pattern = route.segments[i];
      const bool capture = pattern.size() >= 2 && pattern.front() == '{' && pattern.back() == '}';
      matches = capture || pattern == segments[i];
    }
    if (!matches) continue;
    *path_known = true;
    if (route.method == request.method) {
      found = &route;
      break;
    }
  }
  return found;
}

void HttpServer::handle_connection(FileDescriptor client) {
  set_socket_timeouts(client.get(), kSocketTimeoutSeconds);
  HttpMetrics& metrics = http_metrics();
  HttpRequest request;
  HttpResponseWriter writer(client.get());
  std::string route_label = "(unmatched)";
  {
    const obs::ScopedTimer timer(metrics.request_seconds);
    dispatch(client.get(), request, writer, route_label);
  }
  metrics.response_bytes.add(writer.bytes_sent());
  obs::MetricsRegistry::global()
      .counter("fpsched_http_requests_total", "HTTP requests by route and status",
               "route=\"" + route_label + "\",status=\"" + std::to_string(writer.status()) + "\"")
      .add(1);
}

void HttpServer::dispatch(int fd, HttpRequest& request, HttpResponseWriter& writer,
                          std::string& route_label) {
  const int parse_status = read_request(fd, request);
  if (parse_status != 0) {
    route_label = "(bad-request)";
    send_error(writer, parse_status, "malformed request");
    return;
  }
  const obs::TraceSpan span([&] { return "http " + request.method + " " + request.path; });

  bool path_known = false;
  const Route* route = match(request, &path_known);
  if (!route) {
    send_error(writer, path_known ? 405 : 404,
               path_known ? "method not allowed on " + request.path
                          : "no such endpoint: " + request.path);
    return;
  }
  route_label.clear();
  for (const std::string& segment : route->segments) {
    route_label += '/';
    route_label += segment;
  }
  if (route_label.empty()) route_label += '/';
  // Re-bind the {name} captures of the winning pattern.
  const std::vector<std::string> segments = decoded_segments(request.path);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string& pattern = route->segments[i];
    if (pattern.size() >= 2 && pattern.front() == '{' && pattern.back() == '}') {
      request.path_params[pattern.substr(1, pattern.size() - 2)] = segments[i];
    }
  }

  try {
    route->handler(request, writer);
  } catch (const InvalidArgument& e) {
    if (!writer.started()) send_error(writer, 400, e.what());
  } catch (const std::exception& e) {
    if (!writer.started()) send_error(writer, 500, e.what());
  }
  if (!writer.started()) {
    send_error(writer, 500, "handler produced no response");
  } else if (writer.chunked()) {
    writer.end_chunked();
  }
}

}  // namespace fpsched::service
