// Dependency-free embedded HTTP/1.1 server for the experiment service.
//
// Deliberately minimal: blocking sockets, one acceptor thread, a fixed
// pool of connection workers, one request per connection (the server
// always answers `Connection: close`). That is exactly enough for the
// service's traffic shape — a handful of control-plane requests plus
// long-lived chunked NDJSON streams — without pulling in an event loop
// or a third-party dependency.
//
// Handlers get two response modes:
//   - respond(): a buffered body with Content-Length (status JSON, etc.)
//   - begin_chunked()/write_chunk(): a chunked-transfer stream whose
//     chunks flush as they are written — the record-streaming path.
//     write_chunk() returns false once the client hangs up (EPIPE);
//     the handler should stop producing and return.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/socket.hpp"
#include "support/threading.hpp"

namespace fpsched::service {

/// Decodes %xx escapes and '+' (as space) — query-string decoding.
std::string url_decode(std::string_view text);

/// Parses "a=1&b=two" into a key -> decoded-value map (last key wins;
/// a bare "flag" maps to the empty string).
std::map<std::string, std::string> parse_query(std::string_view query);

/// One parsed request. Header names are lowercased; `path` is the RAW
/// request path — routing splits it on literal '/' first and decodes
/// each segment after, so an encoded %2F can never act as a separator.
/// `query` is the raw query string (parse_query() / query_params()
/// decode it). `path_params` holds the {name} captures of the matched
/// route pattern, percent-decoded.
struct HttpRequest {
  std::string method;
  std::string path;
  std::string query;
  std::map<std::string, std::string> headers;
  std::map<std::string, std::string> path_params;
  std::string body;

  std::map<std::string, std::string> query_params() const { return parse_query(query); }
};

/// Response writer bound to one connection. A handler must either call
/// respond() once, or begin_chunked() followed by any number of
/// write_chunk() calls; the server closes the stream (0-chunk) when the
/// handler returns. If a handler returns without writing anything the
/// server sends a 500.
class HttpResponseWriter {
 public:
  explicit HttpResponseWriter(int fd) : fd_(fd) {}

  /// Buffered response with Content-Length. Returns false when the
  /// client is gone (nothing more can be sent).
  bool respond(int status, std::string_view content_type, std::string_view body);

  /// Starts a chunked-transfer response. Chunks flush per write_chunk()
  /// call, so a slow run streams records as they complete.
  bool begin_chunked(int status, std::string_view content_type);

  /// One chunk (no-op for empty data — an empty chunk would terminate
  /// the stream). Returns false once the client disconnected; the
  /// caller should stop streaming.
  bool write_chunk(std::string_view data);

  /// Terminates a chunked stream (idempotent; the server also calls it).
  void end_chunked();

  /// Abandons a chunked stream WITHOUT the terminating 0-chunk, so the
  /// client's HTTP layer reports a truncated transfer instead of a
  /// clean end — for streams cut short server-side (failed job,
  /// shutdown) where a clean terminator would misrepresent the data as
  /// complete.
  void abort_stream() { broken_ = true; }

  bool started() const { return started_; }
  bool chunked() const { return chunked_; }

  /// The status sent (0 until a head is written) and the payload bytes
  /// handed to the socket so far — the request-metrics inputs.
  int status() const { return status_; }
  std::size_t bytes_sent() const { return bytes_sent_; }

 private:
  bool write_head(int status, std::string_view content_type, bool chunked,
                  std::size_t content_length);

  int fd_;
  bool started_ = false;   // response head written
  bool chunked_ = false;   // streaming mode
  bool finished_ = false;  // 0-chunk written
  bool broken_ = false;    // peer gone; suppress further writes
  int status_ = 0;
  std::size_t bytes_sent_ = 0;  // body/chunk payload bytes (headers excluded)
};

using HttpHandler = std::function<void(const HttpRequest&, HttpResponseWriter&)>;

struct HttpServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 8080;
  /// Connection worker threads (>= 1); also the max number of in-flight
  /// requests, since each connection is handled synchronously.
  std::size_t threads = 4;
};

/// The server: route() handlers, then start(). stop() (or destruction)
/// closes the listener and drains in-flight connections.
class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for `method` plus a path pattern. Pattern
  /// segments are literal ("/healthz") or {name} captures
  /// ("/runs/{id}/records") exposed via HttpRequest::path_params.
  /// Routes must be registered before start().
  void route(std::string method, std::string pattern, HttpHandler handler);

  /// Binds and starts the acceptor + workers; throws fpsched::Error when
  /// the port cannot be bound.
  void start();

  /// Stops accepting, wakes the acceptor, and joins every thread once
  /// in-flight requests finish. Idempotent.
  void stop();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return bound_port_; }

 private:
  struct Route {
    std::string method;
    std::vector<std::string> segments;  // "{name}" marks a capture
    HttpHandler handler;
  };

  void accept_loop();
  void handle_connection(FileDescriptor client);
  /// The read/route/handle core of handle_connection; sets `route_label`
  /// to the matched route's pattern (bounded-cardinality metrics label).
  void dispatch(int fd, HttpRequest& request, HttpResponseWriter& writer,
                std::string& route_label);
  const Route* match(const HttpRequest& request, bool* path_known) const;

  HttpServerOptions options_;
  std::vector<Route> routes_;
  FileDescriptor listener_;
  std::uint16_t bound_port_ = 0;
  std::thread acceptor_;
  std::unique_ptr<ThreadPool> workers_;
  bool started_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace fpsched::service
