#ifndef KANON_NET_ROUTER_H_
#define KANON_NET_ROUTER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/http_server.h"

namespace kanon::net {

/// One row of a role's route table.
struct Route {
  /// The exact request path, or — when it ends in '/' — a prefix that
  /// matches every path below it ("/repl/checkpoint/" serves
  /// /repl/checkpoint/<lsn>).
  std::string path;
  /// The one method the route serves. A GET route also answers HEAD; the
  /// server then sends the GET's headers without its body.
  std::string method;
  /// The `endpoint` label of the route's kanon_http_* series. Routes may
  /// share one ("/release" and "/release/query" are both "release").
  std::string endpoint;
  HttpHandler handler;
};

/// The request plane of both serving roles: the leader (AnonHttpFrontend)
/// and the follower (FollowerFrontend) each build one table of Routes, and
/// this class owns everything around the handlers.
///
///  - A path that no route matches is 404 with the shared HttpErrorBody,
///    whose message lists every path of the table.
///  - A matched path asked with a method no route serves is 405 with the
///    same body shape and an `Allow` header naming what the path serves.
///  - Every request counts into kanon_http_requests_total{endpoint,code}
///    and the fixed-bucket kanon_http_request_latency_ms histogram of its
///    route's endpoint (405s included); 404s count as endpoint="other".
///
/// Handle() is thread-safe and is what the role hands to HttpServer. The
/// two setters must be called before traffic.
class Router {
 public:
  explicit Router(std::vector<Route> routes);

  HttpResponse Handle(const HttpRequest& request);

  /// Lets /metrics include the listener's connection counters.
  void SetServerStats(std::function<HttpServerStats()> fn) {
    server_stats_ = std::move(fn);
  }
  /// The `backend` label of kanon_build_info; "epoll", the only event
  /// loop, unless a caller overrides it.
  void SetBackendLabel(std::string backend) {
    backend_label_ = std::move(backend);
  }

  /// A role's /metrics response in the Prometheus text format:
  /// kanon_build_info, then the role's own `series`, then the listener
  /// counters and the per-endpoint request series owned here.
  HttpResponse Metrics(std::string_view series);

 private:
  /// Upper bounds (ms) of the kanon_http_request_latency_ms buckets:
  /// log-spaced by powers of two from 1/16 ms to 4 s, plus the implicit
  /// +Inf. Fixed in code so every scrape exposes the same `le` set.
  static constexpr std::array<double, 17> kLatencyBucketsMs = {
      0.0625, 0.125, 0.25, 0.5, 1, 2, 4, 8, 16,
      32, 64, 128, 256, 512, 1024, 2048, 4096};

  struct EndpointMetrics {
    std::mutex mu;
    // Per-bucket (non-cumulative) counts against kLatencyBucketsMs; the
    // last slot counts requests slower than every finite bound.
    std::array<uint64_t, kLatencyBucketsMs.size() + 1> buckets{};
    double sum_ms = 0.0;
    uint64_t count = 0;
    std::map<int, uint64_t> by_code;
  };

  /// Runs the matching route (or answers 404/405) and sets `*endpoint` to
  /// the index of the endpoint label the request counts under.
  HttpResponse Dispatch(const HttpRequest& request, size_t* endpoint);
  void Observe(size_t endpoint, int http_status, double latency_ms);

  const std::vector<Route> routes_;
  std::vector<std::string> endpoints_;  // distinct labels, then "other"
  std::vector<size_t> route_endpoint_;  // routes_[i] counts into this index
  std::string paths_;                   // the 404 message's path list
  std::unique_ptr<EndpointMetrics[]> metrics_;
  std::function<HttpServerStats()> server_stats_;
  std::string backend_label_ = "epoll";
};

/// Appends one `# TYPE` line and one sample in the Prometheus text format.
void AppendPromMetric(std::string* out, std::string_view name,
                      std::string_view type, double value,
                      std::string_view labels = "");

/// Appends one sample line with no `# TYPE` line: the second and later
/// samples of a labelled series.
void AppendPromSample(std::string* out, std::string_view name,
                      std::string_view labels, double value);

/// Appends an enum as a one-hot gauge, the Prometheus idiom for enums: a
/// `# TYPE` line, then `name{state="<state_name(s)>"}` for each of the
/// `num_states` values s of Enum, 1 for `active` and 0 for the rest.
template <typename Enum>
void AppendPromOneHot(std::string* out, std::string_view name, Enum active,
                      int num_states, const char* (*state_name)(Enum)) {
  out->append("# TYPE ").append(name).append(" gauge\n");
  for (int i = 0; i < num_states; ++i) {
    const auto state = static_cast<Enum>(i);
    AppendPromSample(out, name,
                     "state=\"" + std::string(state_name(state)) + "\"",
                     state == active ? 1 : 0);
  }
}

}  // namespace kanon::net

#endif  // KANON_NET_ROUTER_H_
