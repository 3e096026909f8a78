#include "net/http_parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace kanon::net {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// A "token" per RFC 9110 — what methods and header names are made of.
bool IsTokenChar(char c) {
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool AllTokenChars(std::string_view s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(), [](char c) { return IsTokenChar(c); });
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

void HttpParser::Append(std::string_view data) {
  buffer_.append(data.data(), data.size());
}

HttpParseResult HttpParser::Fail(int http_status, Status status) {
  result_ = HttpParseResult::kError;
  error_ = std::move(status);
  error_http_status_ = http_status;
  return result_;
}

HttpParseResult HttpParser::Next(HttpRequest* out) {
  if (result_ == HttpParseResult::kError) return result_;  // sticky

  // Locate the end of the header block. Lines are CRLF-terminated; a bare
  // LF is tolerated (robustness: curl --data-binary pipelines and hand-
  // written test traffic), so scan for "\n\r\n" / "\n\n" after any LF.
  size_t header_end = std::string::npos;  // index one past the blank line
  size_t pos = buffer_.find('\n');
  while (pos != std::string::npos) {
    if (pos + 1 < buffer_.size() && buffer_[pos + 1] == '\n') {
      header_end = pos + 2;
      break;
    }
    if (pos + 2 < buffer_.size() && buffer_[pos + 1] == '\r' &&
        buffer_[pos + 2] == '\n') {
      header_end = pos + 3;
      break;
    }
    pos = buffer_.find('\n', pos + 1);
  }

  if (header_end == std::string::npos) {
    // Still inside the header block: bound the damage a peer can do by
    // never terminating it.
    const size_t first_eol = buffer_.find('\n');
    if (first_eol == std::string::npos &&
        buffer_.size() > limits_.max_request_line) {
      return Fail(414, Status::InvalidArgument("request line too long"));
    }
    if (buffer_.size() > limits_.max_request_line + limits_.max_header_bytes) {
      return Fail(431, Status::InvalidArgument("header block too large"));
    }
    return result_ = HttpParseResult::kNeedMore;
  }
  if (header_end > limits_.max_request_line + limits_.max_header_bytes) {
    return Fail(431, Status::InvalidArgument("header block too large"));
  }

  // --- Request line -------------------------------------------------------
  std::string_view head(buffer_.data(), header_end);
  size_t line_end = head.find('\n');
  std::string_view request_line = head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.remove_suffix(1);
  }
  if (request_line.size() > limits_.max_request_line) {
    return Fail(414, Status::InvalidArgument("request line too long"));
  }
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Fail(400, Status::InvalidArgument("malformed request line: " +
                                             std::string(request_line)));
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!AllTokenChars(method) || target.empty() || target.front() != '/') {
    return Fail(400, Status::InvalidArgument("malformed request line: " +
                                             std::string(request_line)));
  }
  if (version.size() != 8 || version.substr(0, 7) != "HTTP/1." ||
      (version[7] != '0' && version[7] != '1')) {
    return Fail(505, Status::InvalidArgument("unsupported version: " +
                                             std::string(version)));
  }

  HttpRequest req;
  req.method = std::string(method);
  req.target = std::string(target);
  req.minor_version = version[7] - '0';
  const size_t qmark = target.find('?');
  req.path = UrlDecode(target.substr(0, qmark));
  if (qmark != std::string_view::npos) {
    req.query = std::string(target.substr(qmark + 1));
  }

  // --- Header fields ------------------------------------------------------
  size_t cursor = line_end + 1;
  while (cursor < header_end) {
    size_t eol = head.find('\n', cursor);
    std::string_view line = head.substr(cursor, eol - cursor);
    cursor = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) break;  // blank line: end of headers
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos ||
        !AllTokenChars(line.substr(0, colon))) {
      return Fail(400, Status::InvalidArgument("malformed header field: " +
                                               std::string(line)));
    }
    if (req.headers.size() >= limits_.max_headers) {
      return Fail(431, Status::InvalidArgument("too many header fields"));
    }
    req.headers.emplace_back(ToLower(line.substr(0, colon)),
                             std::string(Trim(line.substr(colon + 1))));
  }

  // --- Body ---------------------------------------------------------------
  if (req.FindHeader("transfer-encoding") != nullptr) {
    return Fail(501, Status::Unimplemented(
                         "transfer-encoding not supported; send "
                         "Content-Length-framed bodies"));
  }
  // Content-Length is 1*DIGIT and appears at most once (RFC 9112 §6.3): a
  // sign, or a second field that frames differently, would let the bytes
  // after the first framing smuggle in a pipelined request.
  if (std::count_if(req.headers.begin(), req.headers.end(), [](const auto& h) {
        return h.first == "content-length";
      }) > 1) {
    return Fail(400, Status::InvalidArgument("repeated Content-Length"));
  }
  size_t content_length = 0;
  if (const std::string* cl = req.FindHeader("content-length")) {
    const char* last = cl->data() + cl->size();
    const auto [end, ec] = std::from_chars(cl->data(), last, content_length);
    if (end == cl->data() || end != last) {
      return Fail(400, Status::InvalidArgument("bad Content-Length: " + *cl));
    }
    if (ec != std::errc() || content_length > limits_.max_body_bytes) {
      return Fail(413, Status::InvalidArgument(
                           "body of " + *cl + " bytes exceeds limit of " +
                           std::to_string(limits_.max_body_bytes)));
    }
  }
  if (buffer_.size() - header_end < content_length) {
    const std::string* expect = req.FindHeader("expect");
    if (expect != nullptr && ToLower(*expect) == "100-continue" &&
        !continue_announced_) {
      pending_continue_ = true;
      continue_announced_ = true;
    }
    return result_ = HttpParseResult::kNeedMore;
  }
  req.body.assign(buffer_, header_end, content_length);
  continue_announced_ = false;

  // --- Connection persistence ---------------------------------------------
  std::string connection;
  if (const std::string* c = req.FindHeader("connection")) {
    connection = ToLower(*c);
  }
  req.keep_alive = req.minor_version >= 1 ? connection != "close"
                                          : connection == "keep-alive";

  buffer_.erase(0, header_end + content_length);
  *out = std::move(req);
  return result_ = HttpParseResult::kComplete;
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && HexVal(s[i + 1]) >= 0 &&
               HexVal(s[i + 2]) >= 0) {
      out += static_cast<char>(HexVal(s[i + 1]) * 16 + HexVal(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

QueryParams ParseQuery(std::string_view query) {
  QueryParams params;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(start, end - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        params.emplace_back(UrlDecode(pair), "");
      } else {
        params.emplace_back(UrlDecode(pair.substr(0, eq)),
                            UrlDecode(pair.substr(eq + 1)));
      }
    }
    start = end + 1;
  }
  return params;
}

const std::string* QueryParam(const QueryParams& params, std::string_view key) {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace kanon::net
