#ifndef KANON_NET_HTTP_CLIENT_H_
#define KANON_NET_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kanon::net {

/// One parsed HTTP response on the client side.
struct ClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // lower-cased
  std::string body;

  const std::string* FindHeader(std::string_view name) const;
};

/// A blocking HTTP/1.1 client over one keep-alive connection — drives the
/// server from tests, kbench, the examples, and the replication tailer.
/// Not a general client: no TLS, no redirects, no chunked responses (the
/// server never sends them). Every socket operation — including connect —
/// is bounded by the timeout passed to Connect, so a peer that dies
/// mid-request surfaces as an IoError instead of a hang.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }

  HttpClient(HttpClient&& other) noexcept { *this = std::move(other); }
  HttpClient& operator=(HttpClient&& other) noexcept;
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to host:port (IPv4 numeric or "localhost"). `timeout_s`
  /// bounds the connect itself (non-blocking connect + poll) as well as
  /// every later send/receive on the socket.
  Status Connect(const std::string& host, uint16_t port,
                 double timeout_s = 10.0);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Issues one request and blocks for the full response. Interim 100
  /// responses are consumed transparently. The connection survives for
  /// reuse unless the server answered Connection: close.
  StatusOr<ClientResponse> Get(const std::string& target);
  StatusOr<ClientResponse> Post(const std::string& target,
                                std::string_view body,
                                const std::string& content_type =
                                    "application/x-ndjson");

 private:
  StatusOr<ClientResponse> RoundTrip(const std::string& request_bytes);

  int fd_ = -1;
  std::string host_;
  std::string residual_;  // bytes read past the previous response
};

}  // namespace kanon::net

#endif  // KANON_NET_HTTP_CLIENT_H_
