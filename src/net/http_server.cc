#include "net/http_server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/check.h"
#include "net/http_status.h"

namespace kanon::net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

constexpr char kContinueBytes[] = "HTTP/1.1 100 Continue\r\n\r\n";

}  // namespace

HttpResponse HttpResponse::Json(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

HttpResponse HttpResponse::FromStatus(const Status& status) {
  HttpResponse resp =
      Json(HttpStatusFromStatusCode(status.code()), HttpErrorBody(status));
  // Every overload/degraded answer — not just /ingest backpressure —
  // carries Retry-After, so load balancers, health checks and replication
  // tailers all back off the same way.
  if (resp.status == 429 || resp.status == 503) {
    resp.headers.emplace_back("Retry-After", "1");
  }
  return resp;
}

std::string SerializeHead(const HttpResponse& resp, bool keep_alive) {
  if (resp.close_connection) keep_alive = false;
  std::string out;
  out.reserve(128);
  out += "HTTP/1.1 ";
  out += std::to_string(resp.status);
  out += ' ';
  out += HttpReasonPhrase(resp.status);
  out += "\r\nContent-Type: ";
  out += resp.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(resp.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [name, value] : resp.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string SerializeResponse(const HttpResponse& resp, bool keep_alive) {
  return SerializeHead(resp, keep_alive) + resp.body;
}

HttpServer::HttpServer(HttpServerOptions options, HttpHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (started_.load()) return Status::FailedPrecondition("already started");
  if (options_.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be at least 1");
  }
  if (Status s = OpenFds(); !s.ok()) {
    CloseFds();
    return s;
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  started_.store(true);
  loop_thread_ = JoinableThread([this] { Loop(); });
  return Status::OK();
}

Status HttpServer::OpenFds() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  KANON_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  std::string host = options_.host.empty() ? "0.0.0.0" : options_.host;
  if (host == "localhost") host = "127.0.0.1";
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable IPv4 listen host: " + host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno(
        ("bind " + host + ":" + std::to_string(options_.port)).c_str());
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (listen(listen_fd_, options_.backlog) != 0) return Errno("listen");

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return Errno("pipe");
  wake_r_ = pipe_fds[0];
  wake_w_ = pipe_fds[1];
  KANON_RETURN_IF_ERROR(SetNonBlocking(wake_r_));
  KANON_RETURN_IF_ERROR(SetNonBlocking(wake_w_));

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  KANON_RETURN_IF_ERROR(Watch(EPOLL_CTL_ADD, listen_fd_, true, false));
  return Watch(EPOLL_CTL_ADD, wake_r_, true, false);
}

void HttpServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    if (!started_.load()) return;
    draining_.store(true);
    Wake();
    loop_thread_.Join();
    pool_->Shutdown();
    CloseFds();
  });
}

void HttpServer::CloseFds() {
  for (int* fd : {&listen_fd_, &wake_r_, &wake_w_, &epoll_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

Status HttpServer::Watch(int op, int fd, bool read, bool write) {
  epoll_event ev{};
  ev.data.fd = fd;
  if (read) ev.events |= EPOLLIN | EPOLLRDHUP;
  if (write) ev.events |= EPOLLOUT;
  if (epoll_ctl(epoll_fd_, op, fd, &ev) != 0) return Errno("epoll_ctl");
  return Status::OK();
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_refused = connections_refused_.load();
  s.requests = requests_.load();
  s.responses = responses_.load();
  s.parse_errors = parse_errors_.load();
  s.timeouts = timeouts_.load();
  s.open_connections = open_connections_.load();
  return s;
}

void HttpServer::Wake() {
  if (wake_w_ < 0) return;
  const char b = 1;
  [[maybe_unused]] ssize_t n = write(wake_w_, &b, 1);  // EAGAIN = already woke
}

int HttpServer::NextTimeoutMs(Clock::time_point now) const {
  Clock::time_point next = Clock::time_point::max();
  for (const auto& [fd, conn] : conns_) {
    if (conn.deadline < next) next = conn.deadline;
  }
  if (next == Clock::time_point::max()) {
    // No deadlines pending: wake periodically anyway so drain checks and
    // stats stay fresh even if a wakeup write is ever lost.
    return 500;
  }
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
          .count();
  return ms <= 0 ? 0 : static_cast<int>(std::min<long long>(ms, 500));
}

void HttpServer::Loop() {
  epoll_event events[128];
  bool listener_closed = false;
  Clock::time_point drain_deadline = Clock::time_point::max();

  while (true) {
    const Clock::time_point now = Clock::now();
    if (draining_.load()) {
      if (!listener_closed) {
        listener_closed = true;
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        drain_deadline =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(options_.drain_timeout_s));
        // Cut every connection with no response in flight: requests not yet
        // fully received were never acknowledged, so closing them is safe.
        std::vector<int> idle;
        for (const auto& [fd, conn] : conns_) {
          if (!conn.handling && conn.out.empty()) idle.push_back(fd);
        }
        for (const int fd : idle) DestroyConn(fd);
      }
      if (conns_.empty() || now >= drain_deadline) break;
    }

    const int n = epoll_wait(epoll_fd_, events, 128, NextTimeoutMs(now));
    if (n < 0 && errno != EINTR) break;  // nothing recoverable below

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        if (!listener_closed) AcceptPending();
      } else if (fd == wake_r_) {
        char buf[256];
        while (read(wake_r_, buf, sizeof(buf)) > 0) {
        }
      } else {
        HandleConnEvent(fd, events[i].events);
      }
    }
    DrainCompletions();
    SweepTimeouts(Clock::now());
  }

  // Loop exit: force-close whatever drain left behind. Stale completions
  // are dropped by the gen check next DrainCompletions — which never runs
  // again, so just free the sockets.
  std::vector<int> leftover;
  leftover.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) leftover.push_back(fd);
  for (const int fd : leftover) DestroyConn(fd);
}

void HttpServer::AcceptPending() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EMFILE and friends: try again on the next readable event
    }
    if (conns_.size() >= options_.max_connections) {
      // Best-effort 503 so the peer sees overload, not a mystery RST.
      static const std::string kOverloaded = SerializeResponse(
          HttpResponse::FromStatus(
              Status::Unavailable("connection limit reached")),
          /*keep_alive=*/false);
      [[maybe_unused]] ssize_t n =
          write(fd, kOverloaded.data(), kOverloaded.size());
      ::close(fd);
      connections_refused_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.gen = ++next_gen_;
    conn.parser = HttpParser(options_.parser);
    conn.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           options_.idle_timeout_s));
    if (!Watch(EPOLL_CTL_ADD, fd, /*read=*/true, false).ok()) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void HttpServer::UpdateReadDeadline(Conn* conn) {
  const double timeout = conn->parser.mid_request()
                             ? options_.read_timeout_s
                             : options_.idle_timeout_s;
  conn->deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout));
}

void HttpServer::HandleConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // destroyed earlier this batch
  Conn* conn = &it->second;

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {  // the connection is dead
    DestroyConn(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0 && !conn->out.empty()) {
    FlushWrites(fd, conn);
    it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = &it->second;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) == 0) return;

  char buf[16 << 10];
  while (true) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      conn->parser.Append(std::string_view(buf, static_cast<size_t>(n)));
      // Stop slurping once a request is parseable: responses go out in
      // order, so there is no point buffering further pipelined bytes
      // faster than we answer them.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      if (conn->parser.buffered_bytes() >
          options_.parser.max_body_bytes + options_.parser.max_header_bytes) {
        break;
      }
      continue;
    }
    if (n == 0) {  // peer closed its write side
      // Complete requests already buffered still get answered (half-close
      // clients exist); a request torn mid-flight can never complete and
      // is dropped in Advance.
      conn->saw_eof = true;
      if (!conn->handling && conn->out.empty() &&
          !conn->parser.mid_request()) {
        DestroyConn(fd);
        return;
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    DestroyConn(fd);
    return;
  }
  Advance(fd, conn);
}

void HttpServer::Advance(int fd, Conn* conn) {
  if (conn->handling || !conn->out.empty()) return;  // strictly in order

  HttpRequest request;
  const HttpParseResult result = conn->parser.Next(&request);
  switch (result) {
    case HttpParseResult::kComplete:
      requests_.fetch_add(1, std::memory_order_relaxed);
      conn->handling = true;
      conn->deadline = Clock::time_point::max();  // handler's clock now
      Watch(EPOLL_CTL_MOD, fd, /*read=*/false, /*write=*/false);
      Dispatch(fd, conn->gen, std::move(request));
      return;
    case HttpParseResult::kNeedMore:
      if (conn->saw_eof) {  // torn mid-request, can never complete
        DestroyConn(fd);
        return;
      }
      if (conn->parser.ConsumePendingContinue()) {
        QueueResponse(fd, conn, kContinueBytes, "", /*close_after=*/false);
        if (conns_.find(fd) == conns_.end()) return;
      }
      UpdateReadDeadline(conn);
      Watch(EPOLL_CTL_MOD, fd, /*read=*/true, /*write=*/!conn->out.empty());
      return;
    case HttpParseResult::kError: {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse resp = HttpResponse::FromStatus(conn->parser.error());
      resp.status = conn->parser.error_http_status();
      QueueResponse(fd, conn, SerializeHead(resp, /*keep_alive=*/false),
                    std::move(resp.body), /*close_after=*/true);
      return;
    }
  }
}

void HttpServer::Dispatch(int fd, uint64_t gen, HttpRequest request) {
  pool_->Submit([this, fd, gen, request = std::move(request)]() {
    HttpResponse response = handler_(request);
    const bool keep_alive =
        request.keep_alive && !response.close_connection && !draining_.load();
    Completion done;
    done.fd = fd;
    done.gen = gen;
    done.head = SerializeHead(response, keep_alive);
    // HEAD gets the GET's header block, Content-Length included, and no
    // body (RFC 9110 §9.3.2).
    if (request.method != "HEAD") done.body = std::move(response.body);
    done.close_after = !keep_alive;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(done));
    }
    Wake();
  });
}

void HttpServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    auto it = conns_.find(done.fd);
    if (it == conns_.end() || it->second.gen != done.gen) continue;
    Conn* conn = &it->second;
    conn->handling = false;
    responses_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(done.fd, conn, std::move(done.head), std::move(done.body),
                  done.close_after);
  }
}

void HttpServer::QueueResponse(int fd, Conn* conn, std::string head,
                               std::string body, bool close_after) {
  KANON_DCHECK(conn->out.empty());
  conn->out.head = std::move(head);
  conn->out.body = std::move(body);
  conn->close_after_write = conn->close_after_write || close_after;
  FlushWrites(fd, conn);
}

void HttpServer::FlushWrites(int fd, Conn* conn) {
  Outgoing& out = conn->out;
  while (out.written < out.size()) {
    // The unsent tail of the head, then of the body.
    iovec iov[2];
    msghdr msg = {};
    msg.msg_iov = iov;
    const size_t head_sent = std::min(out.written, out.head.size());
    if (head_sent < out.head.size()) {
      iov[msg.msg_iovlen++] = {out.head.data() + head_sent,
                               out.head.size() - head_sent};
    }
    const size_t body_sent = out.written - head_sent;
    if (body_sent < out.body.size()) {
      iov[msg.msg_iovlen++] = {out.body.data() + body_sent,
                               out.body.size() - body_sent};
    }
    // MSG_NOSIGNAL: a peer that hung up is EPIPE here, not a SIGPIPE.
    const ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      out.written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options_.write_timeout_s));
      Watch(EPOLL_CTL_MOD, fd, /*read=*/false, /*write=*/true);
      return;
    }
    DestroyConn(fd);
    return;
  }
  // Fully flushed. Drop the buffers, so a connection does not keep its
  // largest response's capacity for its whole life.
  out = Outgoing();
  if (conn->close_after_write) {
    DestroyConn(fd);
    return;
  }
  if (draining_.load() && !conn->handling) {
    DestroyConn(fd);
    return;
  }
  if (conn->saw_eof && !conn->handling && !conn->parser.mid_request()) {
    DestroyConn(fd);
    return;
  }
  UpdateReadDeadline(conn);
  Watch(EPOLL_CTL_MOD, fd, /*read=*/true, /*write=*/false);
  if (!conn->handling) Advance(fd, conn);  // next pipelined request, if any
}

void HttpServer::SweepTimeouts(Clock::time_point now) {
  std::vector<int> expired;
  for (const auto& [fd, conn] : conns_) {
    if (conn.deadline <= now) expired.push_back(fd);
  }
  for (const int fd : expired) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = &it->second;
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    if (!conn->handling && conn->out.empty() && conn->parser.mid_request()) {
      // Torn mid-request: tell the peer why before hanging up.
      static const std::string kTimeout = SerializeResponse(
          HttpResponse{408, "application/json",
                       "{\"error\":\"RequestTimeout\",\"message\":"
                       "\"request not completed in time\"}",
                       {},
                       true},
          false);
      [[maybe_unused]] ssize_t n = write(fd, kTimeout.data(), kTimeout.size());
    }
    DestroyConn(fd);
  }
}

void HttpServer::DestroyConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  open_connections_.store(conns_.size(), std::memory_order_relaxed);
}

}  // namespace kanon::net
