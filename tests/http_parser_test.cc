#include "net/http_parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/anon_http.h"
#include "net/http_status.h"

namespace kanon::net {
namespace {

using Result = HttpParseResult;

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser;
  parser.Append("GET /release?k1=20&summary=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/release?k1=20&summary=1");
  EXPECT_EQ(req.path, "/release");
  EXPECT_EQ(req.query, "k1=20&summary=1");
  EXPECT_EQ(req.minor_version, 1);
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.FindHeader("host"), nullptr);
  EXPECT_EQ(*req.FindHeader("host"), "x");
  EXPECT_FALSE(parser.mid_request());
}

TEST(HttpParserTest, ParsesPostBodyByContentLength) {
  HttpParser parser;
  parser.Append(
      "POST /ingest HTTP/1.1\r\nContent-Length: 8\r\n\r\n1,2\n3,4\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "1,2\n3,4\n");
}

TEST(HttpParserTest, TornReadsByteByByteParseIdentically) {
  const std::string wire =
      "POST /ingest HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello";
  HttpParser parser;
  HttpRequest req;
  for (size_t i = 0; i < wire.size(); ++i) {
    parser.Append(std::string_view(&wire[i], 1));
    const Result r = parser.Next(&req);
    if (i + 1 < wire.size()) {
      ASSERT_EQ(r, Result::kNeedMore) << "completed early at byte " << i;
      EXPECT_TRUE(parser.mid_request());
    } else {
      ASSERT_EQ(r, Result::kComplete);
    }
  }
  EXPECT_EQ(req.body, "hello");
  EXPECT_FALSE(parser.mid_request());
}

TEST(HttpParserTest, PipelinedRequestsParseBackToBack) {
  HttpParser parser;
  parser.Append(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "POST /ingest HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
      "GET /metrics HTTP/1.1\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.path, "/healthz");
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.path, "/ingest");
  EXPECT_EQ(req.body, "abc");
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(parser.Next(&req), Result::kNeedMore);
}

TEST(HttpParserTest, ToleratesBareLfLineEndings) {
  HttpParser parser;
  parser.Append("GET /healthz HTTP/1.1\nHost: x\n\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.path, "/healthz");
}

TEST(HttpParserTest, HeaderNamesLowerCasedValuesTrimmed) {
  HttpParser parser;
  parser.Append("GET / HTTP/1.1\r\nX-MiXeD-CaSe:   padded value  \r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  ASSERT_NE(req.FindHeader("x-mixed-case"), nullptr);
  EXPECT_EQ(*req.FindHeader("x-mixed-case"), "padded value");
}

TEST(HttpParserTest, KeepAliveSemanticsPerVersion) {
  struct Case {
    const char* wire;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
  };
  for (const Case& c : cases) {
    HttpParser parser;
    parser.Append(c.wire);
    HttpRequest req;
    ASSERT_EQ(parser.Next(&req), Result::kComplete) << c.wire;
    EXPECT_EQ(req.keep_alive, c.keep_alive) << c.wire;
  }
}

TEST(HttpParserTest, MalformedRequestLinesAre400) {
  const char* bad[] = {
      "GET\r\n\r\n",
      "GET /\r\n\r\n",
      "/ HTTP/1.1\r\n\r\n",
      "GET / HTTP/1.1 extra\r\n\r\n",
  };
  for (const char* wire : bad) {
    HttpParser parser;
    parser.Append(wire);
    HttpRequest req;
    ASSERT_EQ(parser.Next(&req), Result::kError) << wire;
    EXPECT_EQ(parser.error_http_status(), 400) << wire;
  }
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  HttpParser parser;
  parser.Append("GET / HTTP/2.0\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kError);
  EXPECT_EQ(parser.error_http_status(), 505);
}

TEST(HttpParserTest, OversizedRequestLineIs414) {
  HttpParserLimits limits;
  limits.max_request_line = 64;
  HttpParser parser(limits);
  parser.Append("GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kError);
  EXPECT_EQ(parser.error_http_status(), 414);
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpParserLimits limits;
  limits.max_request_line = 64;
  limits.max_header_bytes = 128;
  HttpParser parser(limits);
  parser.Append("GET / HTTP/1.1\r\nX-Big: " + std::string(500, 'b') +
                "\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kError);
  EXPECT_EQ(parser.error_http_status(), 431);
}

TEST(HttpParserTest, TooManyHeaderFieldsIs431) {
  HttpParserLimits limits;
  limits.max_headers = 4;
  HttpParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i) {
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  parser.Append(wire);
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kError);
  EXPECT_EQ(parser.error_http_status(), 431);
}

TEST(HttpParserTest, BodyOverLimitIs413) {
  HttpParserLimits limits;
  limits.max_body_bytes = 16;
  HttpParser parser(limits);
  parser.Append("POST /ingest HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kError);
  EXPECT_EQ(parser.error_http_status(), 413);
}

TEST(HttpParserTest, MalformedContentLengthIs400) {
  // Only 1*DIGIT frames a body, and only once: a signed value or a second
  // field that disagrees would let the rest parse as a smuggled request.
  for (const char* field :
       {"Content-Length: ten", "Content-Length: +5", "Content-Length: -0",
        "Content-Length: 5\r\nContent-Length: 2"}) {
    HttpParser parser;
    parser.Append(std::string("POST / HTTP/1.1\r\n") + field +
                  "\r\n\r\nhello");
    HttpRequest req;
    ASSERT_EQ(parser.Next(&req), Result::kError) << field;
    EXPECT_EQ(parser.error_http_status(), 400) << field;
  }
}

TEST(HttpParserTest, TransferEncodingIs501) {
  HttpParser parser;
  parser.Append("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kError);
  EXPECT_EQ(parser.error_http_status(), 501);
}

TEST(HttpParserTest, ErrorIsSticky) {
  HttpParser parser;
  parser.Append("BOGUS\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kError);
  // More (valid) bytes do not clear the latched error: the connection is
  // done once poisoned.
  parser.Append("GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(parser.Next(&req), Result::kError);
  EXPECT_EQ(parser.error_http_status(), 400);
}

TEST(HttpParserTest, ExpectContinueSignaledOncePerIncompleteBody) {
  HttpParser parser;
  parser.Append(
      "POST /ingest HTTP/1.1\r\nContent-Length: 4\r\n"
      "Expect: 100-continue\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kNeedMore);
  EXPECT_TRUE(parser.ConsumePendingContinue());
  EXPECT_FALSE(parser.ConsumePendingContinue());  // announced only once
  ASSERT_EQ(parser.Next(&req), Result::kNeedMore);
  EXPECT_FALSE(parser.ConsumePendingContinue());
  parser.Append("body");
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.body, "body");
}

TEST(HttpParserTest, PercentDecodesPath) {
  HttpParser parser;
  parser.Append("GET /a%20b?x=1 HTTP/1.1\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.Next(&req), Result::kComplete);
  EXPECT_EQ(req.path, "/a b");
  EXPECT_EQ(req.query, "x=1");
}

TEST(QueryStringTest, ParsesAndDecodes) {
  const auto params = ParseQuery("k1=20&name=a%20b&plus=x+y&flag&empty=");
  ASSERT_NE(QueryParam(params, "k1"), nullptr);
  EXPECT_EQ(*QueryParam(params, "k1"), "20");
  EXPECT_EQ(*QueryParam(params, "name"), "a b");
  EXPECT_EQ(*QueryParam(params, "plus"), "x y");
  ASSERT_NE(QueryParam(params, "flag"), nullptr);
  EXPECT_EQ(*QueryParam(params, "flag"), "");
  EXPECT_EQ(*QueryParam(params, "empty"), "");
  EXPECT_EQ(QueryParam(params, "missing"), nullptr);
}

TEST(QueryStringTest, MalformedEscapesPassThrough) {
  EXPECT_EQ(UrlDecode("%zz%4"), "%zz%4");
  EXPECT_EQ(UrlDecode("%41"), "A");
}

// The shared StatusCode -> HTTP map is the protocol contract of the whole
// network layer; every code is pinned here so a change is a deliberate,
// reviewed event (satellite: tested in exactly one place).
TEST(HttpStatusMapTest, ExhaustiveStatusCodeMapping) {
  struct Case {
    StatusCode code;
    int http;
  };
  const Case cases[] = {
      {StatusCode::kOk, 200},
      {StatusCode::kInvalidArgument, 400},
      {StatusCode::kNotFound, 404},
      {StatusCode::kOutOfRange, 400},
      {StatusCode::kIoError, 500},
      {StatusCode::kCorruption, 500},
      {StatusCode::kFailedPrecondition, 409},
      {StatusCode::kUnimplemented, 501},
      {StatusCode::kInternal, 500},
      {StatusCode::kResourceExhausted, 429},  // reject-backpressure
      {StatusCode::kUnavailable, 503},        // degraded / stopping
  };
  for (const Case& c : cases) {
    EXPECT_EQ(HttpStatusFromStatusCode(c.code), c.http)
        << StatusCodeToString(c.code);
  }
}

TEST(HttpStatusMapTest, ReasonPhrasesForEmittedCodes) {
  EXPECT_STREQ(HttpReasonPhrase(200), "OK");
  EXPECT_STREQ(HttpReasonPhrase(400), "Bad Request");
  EXPECT_STREQ(HttpReasonPhrase(404), "Not Found");
  EXPECT_STREQ(HttpReasonPhrase(408), "Request Timeout");
  EXPECT_STREQ(HttpReasonPhrase(413), "Payload Too Large");
  EXPECT_STREQ(HttpReasonPhrase(429), "Too Many Requests");
  EXPECT_STREQ(HttpReasonPhrase(503), "Service Unavailable");
}

TEST(HttpStatusMapTest, ErrorBodyIsCanonicalJson) {
  const std::string body =
      HttpErrorBody(Status::Unavailable("queue \"full\""));
  EXPECT_EQ(body,
            "{\"error\":\"Unavailable\",\"message\":\"queue \\\"full\\\"\"}");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ParseRecordLineTest, ParsesCsvAndJsonArrays) {
  std::vector<double> point;
  int32_t sensitive = -1;
  ASSERT_TRUE(ParseRecordLine("1.5,2", 2, &point, &sensitive).ok());
  EXPECT_EQ(point, (std::vector<double>{1.5, 2.0}));
  EXPECT_EQ(sensitive, 0);  // defaulted

  ASSERT_TRUE(ParseRecordLine("[3, 4.25, 7]", 2, &point, &sensitive).ok());
  EXPECT_EQ(point, (std::vector<double>{3.0, 4.25}));
  EXPECT_EQ(sensitive, 7);  // dim+1 values: last is the sensitive code
}

TEST(ParseRecordLineTest, RejectsWrongArityAndNonFinite) {
  std::vector<double> point;
  int32_t sensitive = 0;
  EXPECT_EQ(ParseRecordLine("1", 2, &point, &sensitive).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRecordLine("1,2,3,4", 2, &point, &sensitive).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRecordLine("nan,2", 2, &point, &sensitive).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRecordLine("inf,2", 2, &point, &sensitive).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRecordLine("a,b", 2, &point, &sensitive).code(),
            StatusCode::kInvalidArgument);
  // The sensitive code must be an integer within int32.
  for (const char* line : {"1,2,1e12", "1,2,0.5", "[1,2,-3e9]"}) {
    EXPECT_EQ(ParseRecordLine(line, 2, &point, &sensitive).code(),
              StatusCode::kInvalidArgument)
        << line;
  }
}

}  // namespace
}  // namespace kanon::net
