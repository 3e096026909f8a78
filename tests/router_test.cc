// Router tests: path and prefix matching, the 404/405 policy with Allow,
// HEAD on GET routes, and the per-endpoint request accounting rendered by
// Metrics(). The loopback behaviour of both roles is covered in
// http_server_test.cc and replication_test.cc.

#include "net/router.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/http_status.h"

namespace kanon::net {
namespace {

HttpRequest Request(std::string method, std::string path) {
  HttpRequest request;
  request.method = std::move(method);
  request.path = std::move(path);
  return request;
}

HttpHandler Answer(std::string body) {
  return [body = std::move(body)](const HttpRequest&) {
    return HttpResponse::Json(200, body);
  };
}

Router TestRouter() {
  return Router({
      {"/items", "GET", "items", Answer("list")},
      {"/items", "POST", "items", Answer("add")},
      {"/items/query", "GET", "items", Answer("query")},
      {"/blob/", "GET", "blob", Answer("blob")},
  });
}

const std::string* Header(const HttpResponse& resp, const std::string& name) {
  for (const auto& [key, value] : resp.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

TEST(RouterTest, ExactAndPrefixRoutes) {
  Router router = TestRouter();
  EXPECT_EQ(router.Handle(Request("GET", "/items")).body, "list");
  EXPECT_EQ(router.Handle(Request("POST", "/items")).body, "add");
  EXPECT_EQ(router.Handle(Request("GET", "/items/query")).body, "query");
  EXPECT_EQ(router.Handle(Request("GET", "/blob/17")).body, "blob");
  // Exact routes match exactly; a prefix route needs a path below it.
  EXPECT_EQ(router.Handle(Request("GET", "/items/")).status, 404);
  EXPECT_EQ(router.Handle(Request("GET", "/blob/")).status, 404);
  EXPECT_EQ(router.Handle(Request("GET", "/blob")).status, 404);
}

TEST(RouterTest, NotFoundListsEveryPathOnce) {
  Router router = TestRouter();
  const HttpResponse resp = router.Handle(Request("GET", "/nope"));
  EXPECT_EQ(resp.status, 404);
  EXPECT_EQ(resp.body,
            HttpErrorBody(Status::NotFound(
                "no route for /nope (have /items, /items/query, /blob/*)")));
}

TEST(RouterTest, WrongMethodIs405WithAllowOfThePath) {
  Router router = TestRouter();
  const HttpResponse both = router.Handle(Request("DELETE", "/items"));
  EXPECT_EQ(both.status, 405);
  ASSERT_NE(Header(both, "Allow"), nullptr);
  EXPECT_EQ(*Header(both, "Allow"), "GET, HEAD, POST");
  EXPECT_NE(both.body.find("\"error\":\"InvalidArgument\""),
            std::string::npos)
      << both.body;

  const HttpResponse get_only = router.Handle(Request("POST", "/blob/3"));
  EXPECT_EQ(get_only.status, 405);
  ASSERT_NE(Header(get_only, "Allow"), nullptr);
  EXPECT_EQ(*Header(get_only, "Allow"), "GET, HEAD");
}

// The router runs the GET handler for HEAD; dropping the body is the
// server's job, so Content-Length still describes the GET.
TEST(RouterTest, HeadRunsTheGetHandler) {
  Router router = TestRouter();
  EXPECT_EQ(router.Handle(Request("HEAD", "/items/query")).body, "query");
  EXPECT_EQ(router.Handle(Request("HEAD", "/blob/1")).body, "blob");
}

TEST(RouterTest, MetricsCountEveryRequestUnderItsEndpoint) {
  Router router = TestRouter();
  router.SetServerStats([] {
    HttpServerStats stats;
    stats.connections_accepted = 3;
    return stats;
  });
  router.Handle(Request("GET", "/items"));
  router.Handle(Request("GET", "/items/query"));
  router.Handle(Request("PUT", "/items"));
  router.Handle(Request("GET", "/nope"));

  const HttpResponse resp = router.Metrics("role_series 7\n");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "text/plain; version=0.0.4; charset=utf-8");
  const std::string& body = resp.body;
  for (const std::string line : {
           "kanon_build_info{version=\"",
           "\",backend=\"epoll\"} 1\n",
           "role_series 7\n",
           "kanon_http_connections_accepted_total 3\n",
           "kanon_http_requests_total{endpoint=\"items\",code=\"200\"} 2\n",
           "kanon_http_requests_total{endpoint=\"items\",code=\"405\"} 1\n",
           "kanon_http_requests_total{endpoint=\"other\",code=\"404\"} 1\n",
           "kanon_http_request_latency_ms_bucket{endpoint=\"items\","
           "le=\"+Inf\"} 3\n",
           "kanon_http_request_latency_ms_count{endpoint=\"items\"} 3\n",
       }) {
    EXPECT_NE(body.find(line), std::string::npos)
        << "missing " << line << " in\n"
        << body;
  }
  // An endpoint with no traffic exposes no histogram.
  EXPECT_EQ(body.find("endpoint=\"blob\""), std::string::npos) << body;
}

TEST(RouterTest, PromValuesKeepLargeCountsExact) {
  std::string out;
  AppendPromMetric(&out, "big_total", "counter", 123456789.0);
  AppendPromSample(&out, "ratio", "k=\"v\"", 0.25);
  EXPECT_EQ(out,
            "# TYPE big_total counter\nbig_total 123456789\n"
            "ratio{k=\"v\"} 0.25\n");
}

}  // namespace
}  // namespace kanon::net
