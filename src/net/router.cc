#include "net/router.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "common/version.h"
#include "net/http_status.h"

namespace kanon::net {

namespace {

/// %.15g prints every integral count below 10^15 exactly (%g would round
/// a counter past a million to six digits) and short decimals as written.
std::string PromValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

bool Matches(const std::string& route_path, const std::string& path) {
  if (!route_path.empty() && route_path.back() == '/') {
    return path.size() > route_path.size() && path.starts_with(route_path);
  }
  return path == route_path;
}

}  // namespace

void AppendPromSample(std::string* out, std::string_view name,
                      std::string_view labels, double value) {
  out->append(name);
  if (!labels.empty()) {
    out->append("{");
    out->append(labels);
    out->append("}");
  }
  out->append(" ");
  out->append(PromValue(value));
  out->append("\n");
}

void AppendPromMetric(std::string* out, std::string_view name,
                      std::string_view type, double value,
                      std::string_view labels) {
  out->append("# TYPE ");
  out->append(name);
  out->append(" ");
  out->append(type);
  out->append("\n");
  AppendPromSample(out, name, labels, value);
}

Router::Router(std::vector<Route> routes) : routes_(std::move(routes)) {
  for (auto route = routes_.begin(); route != routes_.end(); ++route) {
    const auto it = std::find(endpoints_.begin(), endpoints_.end(),
                              route->endpoint);
    route_endpoint_.push_back(static_cast<size_t>(it - endpoints_.begin()));
    if (it == endpoints_.end()) endpoints_.push_back(route->endpoint);
    const bool listed = std::any_of(
        routes_.begin(), route,
        [&](const Route& earlier) { return earlier.path == route->path; });
    if (listed) continue;
    paths_ += paths_.empty() ? "" : ", ";
    paths_ += route->path.back() == '/' ? route->path + "*" : route->path;
  }
  endpoints_.push_back("other");
  metrics_ = std::make_unique<EndpointMetrics[]>(endpoints_.size());
}

HttpResponse Router::Handle(const HttpRequest& request) {
  Timer timer;
  size_t endpoint = endpoints_.size() - 1;  // "other"
  HttpResponse response = Dispatch(request, &endpoint);
  Observe(endpoint, response.status, timer.ElapsedMillis());
  return response;
}

HttpResponse Router::Dispatch(const HttpRequest& request, size_t* endpoint) {
  std::string allow;
  for (size_t i = 0; i < routes_.size(); ++i) {
    const Route& route = routes_[i];
    if (!Matches(route.path, request.path)) continue;
    *endpoint = route_endpoint_[i];
    if (request.method == route.method ||
        (request.method == "HEAD" && route.method == "GET")) {
      return route.handler(request);
    }
    allow += (allow.empty() ? "" : ", ") + route.method;
    if (route.method == "GET") allow += ", HEAD";
  }
  if (allow.empty()) {
    return HttpResponse::FromStatus(Status::NotFound(
        "no route for " + request.path + " (have " + paths_ + ")"));
  }
  HttpResponse resp = HttpResponse::Json(
      405, HttpErrorBody(Status::InvalidArgument(
               request.method + " is not allowed on " + request.path +
               " (allow: " + allow + ")")));
  resp.headers.emplace_back("Allow", std::move(allow));
  return resp;
}

void Router::Observe(size_t endpoint, int http_status, double latency_ms) {
  EndpointMetrics& em = metrics_[endpoint];
  std::lock_guard<std::mutex> lock(em.mu);
  ++em.by_code[http_status];
  ++em.count;
  em.sum_ms += latency_ms;
  // First bound >= latency: Prometheus buckets are upper-inclusive.
  const size_t b = static_cast<size_t>(
      std::lower_bound(kLatencyBucketsMs.begin(), kLatencyBucketsMs.end(),
                       latency_ms) -
      kLatencyBucketsMs.begin());
  ++em.buckets[b];
}

HttpResponse Router::Metrics(std::string_view series) {
  std::string out;
  out.reserve(series.size() + (8 << 10));
  // Build identity first: dashboards join every other series against it.
  out += "# TYPE kanon_build_info gauge\n";
  out += "kanon_build_info{version=\"" + std::string(kVersionString) +
         "\",backend=\"" + backend_label_ + "\"} 1\n";
  out += series;

  if (server_stats_ != nullptr) {
    const HttpServerStats http = server_stats_();
    AppendPromMetric(&out, "kanon_http_connections_accepted_total", "counter",
                     static_cast<double>(http.connections_accepted));
    AppendPromMetric(&out, "kanon_http_connections_refused_total", "counter",
                     static_cast<double>(http.connections_refused));
    AppendPromMetric(&out, "kanon_http_open_connections", "gauge",
                     static_cast<double>(http.open_connections));
    AppendPromMetric(&out, "kanon_http_parse_errors_total", "counter",
                     static_cast<double>(http.parse_errors));
    AppendPromMetric(&out, "kanon_http_timeouts_total", "counter",
                     static_cast<double>(http.timeouts));
  }

  // Per-endpoint request counts and latency distribution. The histogram
  // counts every request into fixed buckets, rendered cumulatively the
  // Prometheus way, so `le` sets never change and +Inf equals _count.
  out += "# TYPE kanon_http_requests_total counter\n";
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    EndpointMetrics& em = metrics_[e];
    std::lock_guard<std::mutex> lock(em.mu);
    for (const auto& [code, count] : em.by_code) {
      AppendPromSample(&out, "kanon_http_requests_total",
                       "endpoint=\"" + endpoints_[e] + "\",code=\"" +
                           std::to_string(code) + "\"",
                       static_cast<double>(count));
    }
  }
  out += "# TYPE kanon_http_request_latency_ms histogram\n";
  for (size_t e = 0; e < endpoints_.size(); ++e) {
    EndpointMetrics& em = metrics_[e];
    std::lock_guard<std::mutex> lock(em.mu);
    if (em.count == 0) continue;
    const std::string label = "endpoint=\"" + endpoints_[e] + "\"";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < kLatencyBucketsMs.size(); ++b) {
      cumulative += em.buckets[b];
      AppendPromSample(&out, "kanon_http_request_latency_ms_bucket",
                       label + ",le=\"" + PromValue(kLatencyBucketsMs[b]) +
                           "\"",
                       static_cast<double>(cumulative));
    }
    AppendPromSample(&out, "kanon_http_request_latency_ms_bucket",
                     label + ",le=\"+Inf\"", static_cast<double>(em.count));
    AppendPromSample(&out, "kanon_http_request_latency_ms_sum", label,
                     em.sum_ms);
    AppendPromSample(&out, "kanon_http_request_latency_ms_count", label,
                     static_cast<double>(em.count));
  }
  return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                      std::move(out), {}, false};
}

}  // namespace kanon::net
