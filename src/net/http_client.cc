#include "net/http_client.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/time.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace kanon::net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

const std::string* ClientResponse::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  Close();
  fd_ = other.fd_;
  host_ = std::move(other.host_);
  residual_ = std::move(other.residual_);
  other.fd_ = -1;
  return *this;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  residual_.clear();
}

Status HttpClient::Connect(const std::string& host, uint16_t port,
                           double timeout_s) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");

  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("unparseable IPv4 host: " + host);
  }
  // Bounded connect: a plain blocking connect() ignores SO_SNDTIMEO on
  // Linux and can hang for minutes against a dead or blackholed peer.
  // Flip to non-blocking, poll for writability, read SO_ERROR, flip back.
  const int flags = fcntl(fd_, F_GETFL, 0);
  fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      const Status s = Errno(("connect " + resolved + ":" +
                              std::to_string(port)).c_str());
      Close();
      return s;
    }
    pollfd pfd{fd_, POLLOUT, 0};
    int rc;
    do {
      rc = poll(&pfd, 1, static_cast<int>(timeout_s * 1000));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      Close();
      return Status::IoError("connect " + resolved + ":" +
                             std::to_string(port) + " timed out");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (rc < 0 ||
        getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      if (err != 0) errno = err;
      const Status s = Errno(("connect " + resolved + ":" +
                              std::to_string(port)).c_str());
      Close();
      return s;
    }
  }
  fcntl(fd_, F_SETFL, flags);
  host_ = resolved + ":" + std::to_string(port);
  return Status::OK();
}

StatusOr<ClientResponse> HttpClient::Get(const std::string& target) {
  return RoundTrip("GET " + target + " HTTP/1.1\r\nHost: " + host_ +
                   "\r\n\r\n");
}

StatusOr<ClientResponse> HttpClient::Post(const std::string& target,
                                          std::string_view body,
                                          const std::string& content_type) {
  std::string req = "POST " + target + " HTTP/1.1\r\nHost: " + host_ +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\n\r\n";
  req.append(body.data(), body.size());
  return RoundTrip(req);
}

StatusOr<ClientResponse> HttpClient::RoundTrip(
    const std::string& request_bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");

  size_t sent = 0;
  while (sent < request_bytes.size()) {
    const ssize_t n =
        send(fd_, request_bytes.data() + sent, request_bytes.size() - sent,
             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = Errno("send");
      Close();
      return s;
    }
    sent += static_cast<size_t>(n);
  }

  std::string buf = std::move(residual_);
  residual_.clear();
  while (true) {
    // A complete header block yet?
    const size_t header_end = [&]() -> size_t {
      const size_t crlf = buf.find("\r\n\r\n");
      return crlf == std::string::npos ? std::string::npos : crlf + 4;
    }();
    if (header_end != std::string::npos) {
      // Parse status line + headers.
      ClientResponse resp;
      const size_t line_end = buf.find("\r\n");
      const std::string status_line = buf.substr(0, line_end);
      if (status_line.size() < 12 || status_line.compare(0, 5, "HTTP/") != 0) {
        Close();
        return Status::Corruption("malformed status line: " + status_line);
      }
      resp.status = std::atoi(status_line.c_str() + 9);

      size_t cursor = line_end + 2;
      while (cursor < header_end - 2) {
        const size_t eol = buf.find("\r\n", cursor);
        const std::string line = buf.substr(cursor, eol - cursor);
        cursor = eol + 2;
        if (line.empty()) break;
        const size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        std::string value = line.substr(colon + 1);
        const size_t first = value.find_first_not_of(" \t");
        value = first == std::string::npos ? "" : value.substr(first);
        resp.headers.emplace_back(ToLower(line.substr(0, colon)), value);
      }

      if (resp.status == 100) {  // interim; the real response follows
        buf.erase(0, header_end);
        continue;
      }

      size_t content_length = 0;
      if (const std::string* cl = resp.FindHeader("content-length")) {
        content_length = std::strtoull(cl->c_str(), nullptr, 10);
      }
      if (buf.size() - header_end >= content_length) {
        resp.body = buf.substr(header_end, content_length);
        residual_ = buf.substr(header_end + content_length);
        const std::string* connection = resp.FindHeader("connection");
        if (connection != nullptr && ToLower(*connection) == "close") {
          Close();
        }
        return resp;
      }
    }

    char chunk[16 << 10];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = errno == EAGAIN || errno == EWOULDBLOCK
                           ? Status::IoError("response timed out")
                           : Errno("recv");
      Close();
      return s;
    }
    if (n == 0) {
      Close();
      return Status::IoError("connection closed mid-response");
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace kanon::net
