#ifndef KANON_NET_HTTP_PARSER_H_
#define KANON_NET_HTTP_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kanon::net {

/// One parsed HTTP/1.x request. Header names are stored lower-cased (field
/// names are case-insensitive per RFC 9110); values keep their bytes with
/// surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;            // "GET", "POST", ... (verbatim)
  std::string target;            // raw request target ("/release?k1=20")
  std::string path;              // target up to '?', percent-decoded
  std::string query;             // raw query string after '?' ("" if none)
  int minor_version = 1;         // HTTP/1.<minor>
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;        // after Connection / version defaulting

  /// Case-insensitive header lookup (`name` must be lower-case). Returns
  /// nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
};

/// Tuning limits of the incremental parser. Every buffer the parser grows
/// is bounded by one of these, so a malicious peer cannot balloon memory.
struct HttpParserLimits {
  size_t max_request_line = 8 << 10;   // method + target + version
  size_t max_header_bytes = 32 << 10;  // total header block
  size_t max_headers = 100;            // individual fields
  size_t max_body_bytes = 8 << 20;     // Content-Length ceiling
};

/// An incremental, allocation-bounded HTTP/1.0 / 1.1 request parser.
///
/// Feed() consumes bytes as they arrive from the socket — a request torn
/// across arbitrarily many reads parses identically to one delivered whole,
/// and bytes beyond the first complete request stay buffered so pipelined
/// requests parse back-to-back without re-feeding. Typical loop:
///
///   parser.Append(data);                 // bytes from one read()
///   HttpRequest req;
///   while (parser.Next(&req) == HttpParseResult::kComplete) {
///     ... handle req ...
///   }
///   if (parser.result() == HttpParseResult::kError) { respond 4xx/5xx }
///
/// The parser handles Content-Length bodies; Transfer-Encoding is refused
/// with 501 (the serving protocol never needs chunked uploads: NDJSON
/// batches have a known length). Parse errors are sticky: once kError the
/// connection must be answered with error_http_status() and closed.
enum class HttpParseResult { kNeedMore, kComplete, kError };

class HttpParser {
 public:
  explicit HttpParser(HttpParserLimits limits = {}) : limits_(limits) {}

  /// Buffers `data` (bytes read off the wire) for parsing.
  void Append(std::string_view data);

  /// Attempts to parse the next complete request out of the buffered
  /// bytes. kComplete fills `*out` and consumes the request's bytes;
  /// kNeedMore leaves the partial request buffered; kError latches the
  /// error (see error() / error_http_status()).
  HttpParseResult Next(HttpRequest* out);

  /// The latched result of the most recent Next() call.
  HttpParseResult result() const { return result_; }

  /// Why parsing failed (meaningful only after kError)...
  const Status& error() const { return error_; }
  /// ...and the HTTP status code to answer with (400, 413, 431, 501, 505).
  int error_http_status() const { return error_http_status_; }

  /// True while a request is partially buffered (distinguishes an idle
  /// keep-alive connection from one torn mid-request, for timeouts).
  bool mid_request() const { return !buffer_.empty(); }

  /// True exactly once per request whose headers carried
  /// "Expect: 100-continue" and whose body has not fully arrived — the
  /// server answers with an interim "100 Continue" so clients (curl) send
  /// the body immediately instead of waiting out their expect timeout.
  bool ConsumePendingContinue() {
    const bool pending = pending_continue_;
    pending_continue_ = false;
    return pending;
  }

  /// Total bytes currently buffered (diagnostics).
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  HttpParseResult Fail(int http_status, Status status);

  HttpParserLimits limits_;
  std::string buffer_;
  HttpParseResult result_ = HttpParseResult::kNeedMore;
  Status error_;
  int error_http_status_ = 0;
  bool pending_continue_ = false;
  bool continue_announced_ = false;
};

/// Decoded query key/value pairs, in request order.
using QueryParams = std::vector<std::pair<std::string, std::string>>;

/// Splits a raw query string ("a=1&b=x%20y") into decoded key/value pairs.
/// '+' decodes to space; malformed %-escapes are kept verbatim.
QueryParams ParseQuery(std::string_view query);

/// Returns the first value for `key` in parsed query params, or nullptr.
const std::string* QueryParam(const QueryParams& params, std::string_view key);

/// Percent-decodes `s` ('+' becomes space). Malformed escapes pass through.
std::string UrlDecode(std::string_view s);

}  // namespace kanon::net

#endif  // KANON_NET_HTTP_PARSER_H_
