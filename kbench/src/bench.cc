#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <unordered_map>

#include "data/landsend_generator.h"

namespace kbench {

using kanon::Dataset;
using kanon::PartitionSet;

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// ---------------------------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Metrics::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Metrics::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

void Outcome::FailCheck(const std::string& what) {
  errors.push_back(what);
  ++failed;
}

// ---------------------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"start_ms\":%.4f,\"end_ms\":%.4f,"
                  "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                  s.name, s.start_ms, s.end_ms,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ms = NowMs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ms = NowMs();
  tracer_->Record(span_);
}

const std::vector<std::string>& TraceLayers() {
  static const std::vector<std::string> layers = {
      "client", "net", "durability", "index", "anon"};
  return layers;
}

std::vector<double> SelfTimeShares(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self_ms;
  double total = 0.0;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : it->second) {
        const double lo = std::max(c->start_ms, s.start_ms);
        const double hi = std::min(c->end_ms, s.end_ms);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const double self = std::max(0.0, s.end_ms - s.start_ms - covered);
    const std::string_view name(s.name);
    self_ms[std::string(name.substr(0, name.find('.')))] += self;
    total += self;
  }
  std::vector<double> shares;
  for (const std::string& layer : TraceLayers()) {
    shares.push_back(total > 0.0 ? self_ms[layer] / total : 0.0);
  }
  return shares;
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

std::vector<double> OutsideChild(const std::vector<Span>& spans,
                                 std::string_view root,
                                 std::string_view child) {
  std::unordered_map<uint64_t, double> root_ms;
  for (const Span& s : spans) {
    if (root == s.name && s.request != 0) {
      root_ms[s.request] = s.end_ms - s.start_ms;
    }
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (child != s.name) continue;
    auto it = root_ms.find(s.request);
    if (it != root_ms.end()) out.push_back(it->second - (s.end_ms - s.start_ms));
  }
  return out;
}

// ---------------------------------------------------------------------------

kanon::ShardedServiceOptions ServeDefaults(const std::string& wal_dir) {
  kanon::ShardedServiceOptions options;
  kanon::ServiceOptions& s = options.service;
  s.anonymizer.base_k = kK;
  s.queue_capacity = 4096;
  s.max_batch = 256;
  s.snapshot_every = 10000;
  s.dp_height = 10;
  s.durability.wal_dir = wal_dir;
  s.durability.fsync_every = 256;
  s.durability.checkpoint_every = 100000;
  options.sharding.num_shards = 1;
  return options;
}

namespace {

constexpr std::string_view kRidParam = "bench_rid=";

/// Splits the trailing request-id parameter off a traced request.
uint64_t TakeRequestId(kanon::net::HttpRequest* request) {
  const size_t pos = request->query.rfind(kRidParam);
  if (pos == std::string::npos) return 0;
  const uint64_t id =
      std::strtoull(request->query.c_str() + pos + kRidParam.size(), nullptr,
                    10);
  const size_t cut = pos > 0 ? pos - 1 : pos;  // drop the joining '&' too
  request->query.erase(cut);
  const size_t q = request->target.find('?');
  request->target.erase(request->query.empty() ? q : q + 1 + cut);
  return id;
}

const char* HandlerSpanName(const kanon::net::HttpRequest& request) {
  if (request.path == "/ingest") return "net.ingest_handler";
  if (request.query.find("summary=1") != std::string::npos) {
    return "net.release_handler";
  }
  return "net.download_handler";
}

}  // namespace

Stack::~Stack() { Stop(); }

void Stack::Stop() {
  if (http != nullptr) http->Shutdown();
  if (service != nullptr) service->Stop();
}

kanon::StatusOr<std::unique_ptr<Stack>> StartStack(
    size_t dim, const kanon::Domain& domain,
    const kanon::ShardedServiceOptions& options, Tracer* tracer) {
  auto stack = std::make_unique<Stack>();
  KANON_ASSIGN_OR_RETURN(
      stack->service,
      kanon::ShardedAnonymizationService::Create(dim, domain, options));
  stack->frontend =
      std::make_unique<kanon::net::AnonHttpFrontend>(stack->service.get());
  kanon::net::HttpServerOptions http_options;
  http_options.port = 0;
  http_options.num_threads = kHttpThreads;
  http_options.parser.max_body_bytes = 8u << 20;
  kanon::net::AnonHttpFrontend* frontend = stack->frontend.get();
  kanon::net::HttpHandler handler;
  if (tracer == nullptr) {
    handler = [frontend](const kanon::net::HttpRequest& request) {
      return frontend->Handle(request);
    };
  } else {
    handler = [frontend, tracer](const kanon::net::HttpRequest& request) {
      kanon::net::HttpRequest stripped = request;
      const uint64_t rid = TakeRequestId(&stripped);
      ScopedSpan span(tracer, HandlerSpanName(stripped), rid, rid);
      return frontend->Handle(stripped);
    };
  }
  stack->http = std::make_unique<kanon::net::HttpServer>(http_options,
                                                         std::move(handler));
  kanon::net::HttpServer* http = stack->http.get();
  stack->frontend->SetServerStats([http] { return http->stats(); });
  KANON_RETURN_IF_ERROR(stack->http->Start());
  stack->frontend->SetBackendLabel(http->using_epoll() ? "epoll" : "poll");
  return stack;
}

std::string TracedTarget(const std::string& target, uint64_t request) {
  if (request == 0) return target;
  const char sep = target.find('?') == std::string::npos ? '?' : '&';
  return target + sep + std::string(kRidParam) + std::to_string(request);
}

double JsonNumber(std::string_view body, std::string_view key) {
  std::string needle = "\"";
  needle.append(key);
  needle += "\":";
  const size_t pos = body.find(needle);
  if (pos == std::string_view::npos) return 0.0;
  const char* first = body.data() + pos + needle.size();
  double value = 0.0;
  std::from_chars(first, body.data() + body.size(), value);
  return value;
}

PartitionSet PartitionsFromBody(std::string_view body) {
  PartitionSet ps;
  constexpr std::string_view kCount = "{\"count\":";
  const size_t list = body.find("\"partitions\":");
  if (list == std::string_view::npos) return ps;
  for (size_t pos = body.find(kCount, list); pos != std::string_view::npos;
       pos = body.find(kCount, pos + kCount.size())) {
    size_t count = 0;
    const char* first = body.data() + pos + kCount.size();
    std::from_chars(first, body.data() + body.size(), count);
    kanon::Partition part;
    part.rids.resize(count);
    ps.partitions.push_back(std::move(part));
  }
  return ps;
}

Dataset GenerateRecords(uint64_t seed, size_t n) {
  constexpr size_t kChunk = 50000;
  const kanon::LandsEndGenerator gen(seed);
  Dataset data(kanon::LandsEndGenerator::MakeSchema());
  data.Reserve(n);
  for (size_t c = 0; c * kChunk < n; ++c) {
    gen.AppendTo(&data, std::min(kChunk, n - c * kChunk), c);
  }
  return data;
}

kanon::Domain LandsEndDomain() {
  kanon::Domain domain;
  domain.lo = {501, 0, 0, 0, 5, 1, 2, 0};
  domain.hi = {99950, 3651, 1, 599, 500, 10, 350, 4};
  return domain;
}

std::string CsvLines(const Dataset& data, size_t begin, size_t end) {
  std::string out;
  char buf[32];
  for (size_t r = begin; r < end; ++r) {
    for (const double v : data.row(r)) {
      const auto res = std::to_chars(buf, buf + sizeof(buf), v);
      out.append(buf, res.ptr);
      out += ',';
    }
    out += std::to_string(data.sensitive(r));
    out += '\n';
  }
  return out;
}

}  // namespace kbench
