#ifndef KANON_TESTS_HTTP_TEST_UTIL_H_
#define KANON_TESTS_HTTP_TEST_UTIL_H_

// Wire-level helpers shared by the leader and follower HTTP tests: a raw
// loopback socket for requests HttpClient cannot express (HEAD framing on
// a keep-alive connection), and a parser for the latency histogram of a
// /metrics body.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace kanon::testutil {

/// One blocking loopback TCP connection with a 5 s receive timeout.
class RawHttpConnection {
 public:
  explicit RawHttpConnection(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    KANON_CHECK(fd_ >= 0);
    timeval timeout{5, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    KANON_CHECK(connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
  }
  ~RawHttpConnection() { ::close(fd_); }

  RawHttpConnection(const RawHttpConnection&) = delete;
  RawHttpConnection& operator=(const RawHttpConnection&) = delete;

  void Send(std::string_view bytes) {
    KANON_CHECK(write(fd_, bytes.data(), bytes.size()) ==
                static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until everything received so far holds `n` header blocks
  /// (`\r\n\r\n` terminators), the peer closes, or the timeout lapses.
  /// Returns all bytes received on the connection.
  const std::string& ReadHeaderBlocks(size_t n) {
    while (CountHeaderBlocks() < n) {
      char buf[4096];
      const ssize_t got = read(fd_, buf, sizeof(buf));
      if (got <= 0) break;
      received_.append(buf, static_cast<size_t>(got));
    }
    return received_;
  }

 private:
  size_t CountHeaderBlocks() const {
    size_t count = 0;
    for (size_t at = received_.find("\r\n\r\n"); at != std::string::npos;
         at = received_.find("\r\n\r\n", at + 4)) {
      ++count;
    }
    return count;
  }

  int fd_ = -1;
  std::string received_;
};

/// The value of header `name` (as written, case-sensitive) in the header
/// block at the start of `response`, or "" when absent.
inline std::string RawHeader(const std::string& response,
                             const std::string& name) {
  const std::string block = response.substr(0, response.find("\r\n\r\n"));
  const size_t at = block.find("\r\n" + name + ": ");
  if (at == std::string::npos) return "";
  const size_t begin = at + name.size() + 4;
  return block.substr(begin, block.find("\r\n", begin) - begin);
}

/// Sends HEAD and then GET for `path` on one keep-alive connection. The
/// HEAD answer must be a 200 header block with a non-zero Content-Length
/// and no body, so the GET's 200 starts right after it on the wire.
inline void ExpectHeadThenGetFramed(uint16_t port, const std::string& path) {
  RawHttpConnection conn(port);
  const std::string request = " " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
  conn.Send("HEAD" + request);
  conn.ReadHeaderBlocks(1);
  conn.Send("GET" + request);
  const std::string& wire = conn.ReadHeaderBlocks(2);
  const size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos) << wire;
  const std::string head = wire.substr(0, head_end + 4);
  EXPECT_EQ(head.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << head;
  const std::string length = RawHeader(head, "Content-Length");
  EXPECT_FALSE(length.empty() || length == "0") << head;
  EXPECT_EQ(wire.compare(head_end + 4, 17, "HTTP/1.1 200 OK\r\n"), 0)
      << "the HEAD answer carried a body:\n" << wire;
}

/// One endpoint's kanon_http_request_latency_ms histogram as exposed.
struct ScrapedHistogram {
  std::vector<std::string> les;   // bucket bounds in exposition order
  std::vector<uint64_t> buckets;  // cumulative counts, same order
  uint64_t count = 0;
  bool has_count = false;
};

/// Parses every kanon_http_request_latency_ms series of a /metrics body,
/// keyed by endpoint label.
inline std::map<std::string, ScrapedHistogram> ScrapeLatencyHistograms(
    const std::string& body) {
  std::map<std::string, ScrapedHistogram> out;
  const std::string bucket =
      "kanon_http_request_latency_ms_bucket{endpoint=\"";
  const std::string count =
      "kanon_http_request_latency_ms_count{endpoint=\"";
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const bool is_bucket = line.rfind(bucket, 0) == 0;
    const bool is_count = line.rfind(count, 0) == 0;
    if (!is_bucket && !is_count) continue;
    const size_t name_begin = (is_bucket ? bucket : count).size();
    const std::string endpoint =
        line.substr(name_begin, line.find('"', name_begin) - name_begin);
    const uint64_t value =
        std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
    ScrapedHistogram& h = out[endpoint];
    if (is_count) {
      h.count = value;
      h.has_count = true;
      continue;
    }
    const size_t le_begin = line.find("le=\"") + 4;
    h.les.push_back(
        line.substr(le_begin, line.find('"', le_begin) - le_begin));
    h.buckets.push_back(value);
  }
  return out;
}

}  // namespace kanon::testutil

#endif  // KANON_TESTS_HTTP_TEST_UTIL_H_
