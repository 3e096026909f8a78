#ifndef KANON_NET_HTTP_SERVER_H_
#define KANON_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread.h"
#include "common/thread_pool.h"
#include "net/http_parser.h"

namespace kanon::net {

/// What a handler returns. The server adds Content-Length, Connection and
/// Date-free framing; handlers fill status, media type and body.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers, e.g. {"Retry-After", "1"} on 429/503.
  std::vector<std::pair<std::string, std::string>> headers;
  /// Forces Connection: close after this response.
  bool close_connection = false;

  static HttpResponse Json(int status, std::string body);
  /// An error response via the shared StatusCode -> HTTP map
  /// (net/http_status.h), with the canonical JSON error body.
  static HttpResponse FromStatus(const Status& status);
};

/// Serializes the status line and header block of `resp`, through the
/// blank line that ends it; Content-Length counts resp.body. `keep_alive`
/// decides the Connection header (and is overridden by
/// resp.close_connection). The server sends the body after it as a
/// separate buffer, never concatenated.
std::string SerializeHead(const HttpResponse& resp, bool keep_alive);

/// SerializeHead followed by the body: the whole response as one string,
/// for the server's fixed early answers and for tests.
std::string SerializeResponse(const HttpResponse& resp, bool keep_alive);

/// Request handler. Runs on a worker-pool thread; must be thread-safe and
/// may block — e.g. on the ingest queue's kBlock backpressure — without
/// stalling other connections.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  /// IPv4 listen address ("127.0.0.1", "0.0.0.0"; "localhost" accepted).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  int backlog = 128;
  /// Handler worker threads (a ThreadPool); at least 1.
  size_t num_threads = 4;
  /// Connections beyond this are answered 503 and closed at accept.
  size_t max_connections = 1024;
  /// Parser bounds; max_body_bytes is the --max-body-bytes CLI knob.
  HttpParserLimits parser;
  /// A keep-alive connection with no request in flight is closed after
  /// this long...
  double idle_timeout_s = 60.0;
  /// ...a connection torn mid-request is answered 408 and closed after
  /// this long...
  double read_timeout_s = 10.0;
  /// ...and one that will not accept response bytes is closed after this.
  double write_timeout_s = 10.0;
  /// Shutdown(): how long in-flight requests may take to finish before
  /// their connections are force-closed.
  double drain_timeout_s = 10.0;
};

/// Point-in-time counters of the listener (all cumulative since Start).
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  // over max_connections
  uint64_t requests = 0;             // complete requests parsed
  uint64_t responses = 0;            // responses fully written
  uint64_t parse_errors = 0;
  uint64_t timeouts = 0;             // idle + read + write expiries
  size_t open_connections = 0;
};

/// A dependency-free, multi-threaded HTTP/1.1 server: one event-loop
/// thread multiplexes all sockets through epoll(7); complete requests
/// are dispatched to a worker pool; responses flow back to the
/// loop over a completion queue and a self-pipe wakeup. Connections are
/// strictly pipelined-in-order: one request per connection is in flight at
/// a time, later pipelined requests stay buffered until the response ships.
///
///   accept -> [event loop: read/parse] -> ThreadPool handler
///                     ^                        |
///                     +--- completion queue <--+
///
/// The loop never blocks on a handler and handlers never touch sockets, so
/// a handler blocked on ingest backpressure delays only its own
/// connection. A HEAD request gets its handler's headers, Content-Length
/// included, and never a body. Shutdown() is the graceful-drain half of
/// SIGTERM handling: stop accepting, cut idle connections, let in-flight
/// requests finish (bounded by drain_timeout_s), then join the loop and
/// the pool.
class HttpServer {
 public:
  HttpServer(HttpServerOptions options, HttpHandler handler);
  ~HttpServer();  // implies Shutdown()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the event loop + worker pool. On success
  /// port() returns the actual bound port (the --port 0 contract); an
  /// error (epoll_create1 included) leaves nothing open. num_threads 0 is
  /// InvalidArgument.
  Status Start();

  uint16_t port() const { return port_; }
  /// The actually-bound port — identical to port(), under the name the
  /// serving CLI and scripts use when started with --listen :0.
  uint16_t bound_port() const { return port_; }
  const std::string& host() const { return options_.host; }
  /// Always true: epoll is the only event loop. Kept for callers that
  /// label the backend in their output.
  bool using_epoll() const { return true; }

  /// Graceful drain (see class comment). Idempotent, thread-safe, callable
  /// from a signal-watching thread.
  void Shutdown();

  HttpServerStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One response on its way to the socket: the header block, then the
  /// body, written with one sendmsg so neither is copied into the other.
  struct Outgoing {
    std::string head;
    std::string body;
    size_t written = 0;  // bytes of head + body already sent

    size_t size() const { return head.size() + body.size(); }
    bool empty() const { return size() == 0; }
  };

  struct Conn {
    uint64_t gen = 0;      // matches completions to this conn, not a
                           // later one that reused the fd
    HttpParser parser;
    Outgoing out;          // the response being written, if any
    bool handling = false; // a request of this conn is in the pool
    bool close_after_write = false;
    bool saw_eof = false;  // peer half-closed; no more request bytes come
    Clock::time_point deadline = Clock::time_point::max();
  };

  struct Completion {
    int fd = -1;
    uint64_t gen = 0;
    std::string head;
    std::string body;
    bool close_after = false;
  };

  void Loop();
  void AcceptPending();
  /// `events` is the epoll_event mask reported for `fd`.
  void HandleConnEvent(int fd, uint32_t events);
  /// Parses buffered bytes and dispatches at most one request.
  void Advance(int fd, Conn* conn);
  void Dispatch(int fd, uint64_t gen, HttpRequest request);
  /// Moves a response into the connection, whose previous one is fully
  /// written by then (one response per connection is in flight).
  void QueueResponse(int fd, Conn* conn, std::string head, std::string body,
                     bool close_after);
  /// Writes pending bytes; on completion re-arms reading (or closes).
  void FlushWrites(int fd, Conn* conn);
  void DrainCompletions();
  void SweepTimeouts(Clock::time_point now);
  void DestroyConn(int fd);
  void Wake();
  /// Sets the epoll interest of `fd` (op = EPOLL_CTL_ADD or _MOD).
  Status Watch(int op, int fd, bool read, bool write);
  /// Opens the listening socket, the wakeup pipe and the epoll set;
  /// CloseFds() releases whatever is open.
  Status OpenFds();
  void CloseFds();
  int NextTimeoutMs(Clock::time_point now) const;
  void UpdateReadDeadline(Conn* conn);

  const HttpServerOptions options_;
  const HttpHandler handler_;

  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;

  std::unique_ptr<ThreadPool> pool_;
  std::unordered_map<int, Conn> conns_;  // event-loop thread only
  uint64_t next_gen_ = 0;                // event-loop thread only

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::once_flag shutdown_once_;

  // Stats (written by the loop thread; read from anywhere).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_refused_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<size_t> open_connections_{0};

  JoinableThread loop_thread_;  // last member: joins before the rest dies
};

}  // namespace kanon::net

#endif  // KANON_NET_HTTP_SERVER_H_
