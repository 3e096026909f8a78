#include "net/anon_http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>

#include "common/env.h"
#include "common/number_text.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "net/http_parser.h"
#include "net/http_status.h"
#include "net/replication.h"

namespace kanon::net {

namespace {

std::string_view TrimWs(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// InvalidArgument naming the first query key not in `allowed`, or the
/// first key given twice. Read endpoints reject unknown parameters instead
/// of ignoring them: a typo (epsilo=0.1) that silently serves the default
/// would look honored while it is not. A repeated key is ambiguous the same
/// way: QueryParam reads the first value and would drop the second.
Status CheckQueryKeys(const QueryParams& params,
                      std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : params) {
    if (QueryParam(params, key) != &value) {
      return Status::InvalidArgument("duplicate query parameter '" + key +
                                     "'");
    }
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    std::string have;
    for (const std::string_view a : allowed) {
      if (!have.empty()) have += ", ";
      have += a;
    }
    return Status::InvalidArgument("unknown query parameter '" + key +
                                   "' (have " +
                                   (have.empty() ? "none" : have) + ")");
  }
  return Status::OK();
}

/// Reads the optional integer query parameter `key` into *out (untouched
/// when absent). A value that is not a whole decimal integer >= `min` is
/// InvalidArgument: a malformed value must not silently become the default.
Status ParseUintParam(const QueryParams& params, std::string_view key,
                      uint64_t min, uint64_t* out) {
  const std::string* v = QueryParam(params, key);
  if (v != nullptr && (!ParseU64Param(*v, out) || *out < min)) {
    return Status::InvalidArgument(std::string(key) +
                                   " must be an integer >= " +
                                   std::to_string(min) + ", got '" + *v + "'");
  }
  return Status::OK();
}

/// Hard cap on one /repl/wal response body; requests asking for more are
/// clamped (the follower just asks again from its new position).
constexpr uint64_t kReplMaxBatchBytes = 8u << 20;

/// Reads the optional flag `key` into *out (untouched when absent). Only
/// "0" and "1" are meaningful; anything else is the caller asking for
/// something this server does not do.
Status ParseFlagParam(const QueryParams& params, std::string_view key,
                      bool* out) {
  const std::string* v = QueryParam(params, key);
  if (v == nullptr) return Status::OK();
  if (*v != "0" && *v != "1") {
    return Status::InvalidArgument(std::string(key) +
                                   " must be 0 or 1, got '" + *v + "'");
  }
  *out = *v == "1";
  return Status::OK();
}

/// 410 Gone with the standard error-body shape: the requested replication
/// artifact was superseded (checkpoint GC'd, WAL range truncated). The
/// client's move is a fresh /repl/manifest, not a retry.
HttpResponse ReplGone(const std::string& message) {
  return HttpResponse::Json(
      410, "{\"error\":\"Gone\",\"message\":\"" + JsonEscape(message) + "\"}");
}

/// The shared "no shard has published yet" 503.
HttpResponse NothingPublished() {
  return HttpResponse::FromStatus(Status::Unavailable(
      "no shard has published yet; ingest at least base_k records"));
}

/// Parses the optional epsilon of the DP endpoints. Absent epsilon means
/// 1.0. There is deliberately no seed parameter: the noise is drawn from
/// the server-held secret key, and a client-choosable seed would let the
/// client regenerate and subtract the noise.
Status ParseEpsilonParam(
    const std::vector<std::pair<std::string, std::string>>& params,
    double* epsilon) {
  *epsilon = 1.0;
  if (const std::string* v = QueryParam(params, "epsilon")) {
    char* end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || !std::isfinite(parsed) ||
        parsed <= 0.0) {
      return Status::InvalidArgument(
          "epsilon must be a positive finite number, got '" + *v + "'");
    }
    *epsilon = parsed;
  }
  return Status::OK();
}

/// Appends the comma-separated finite numbers of `list` to `out`;
/// InvalidArgument names the first field that is not one.
Status ParseNumberList(std::string_view list, std::vector<double>* out) {
  size_t start = 0;
  while (start <= list.size()) {
    size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    const std::string field(TrimWs(list.substr(start, end - start)));
    char* parse_end = nullptr;
    const double v = std::strtod(field.c_str(), &parse_end);
    if (field.empty() || parse_end == field.c_str() || *parse_end != '\0' ||
        !std::isfinite(v)) {
      return Status::InvalidArgument("unparseable number '" + field + "'");
    }
    out->push_back(v);
    start = end + 1;
  }
  return Status::OK();
}

/// Parses a comma-separated list of exactly `dim` finite numbers (the
/// per-dimension bounds of a DP range query).
Status ParseBoundsParam(const std::string& value, size_t dim,
                        std::string_view name, std::vector<double>* out) {
  out->clear();
  if (Status s = ParseNumberList(value, out); !s.ok()) {
    return Status::InvalidArgument(std::string(name) + " has an " +
                                   s.message() + " in '" + value + "'");
  }
  if (out->size() != dim) {
    return Status::InvalidArgument(
        std::string(name) + " has " + std::to_string(out->size()) +
        " values, want " + std::to_string(dim) + " (one per dimension)");
  }
  return Status::OK();
}

}  // namespace

Status ParseRecordLine(std::string_view line, size_t dim,
                       std::vector<double>* point, int32_t* sensitive) {
  point->clear();
  *sensitive = 0;
  std::string_view s = TrimWs(line);
  const bool json_array = !s.empty() && s.front() == '[';
  if (json_array) {
    if (s.back() != ']') {
      return Status::InvalidArgument("unterminated JSON array: " +
                                     std::string(line));
    }
    s.remove_prefix(1);
    s.remove_suffix(1);
  }
  // Both accepted forms are now a comma-separated list of numbers.
  if (Status parsed = ParseNumberList(s, point); !parsed.ok()) {
    return Status::InvalidArgument(parsed.message() +
                                   " in record: " + std::string(line));
  }
  if (point->size() == dim + 1) {
    const double code = point->back();
    if (code != std::trunc(code) ||
        code < std::numeric_limits<int32_t>::min() ||
        code > std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument(
          "sensitive code is not a 32-bit integer: " + std::string(line));
    }
    *sensitive = static_cast<int32_t>(code);
    point->pop_back();
  } else if (point->size() != dim) {
    return Status::InvalidArgument(
        "record has " + std::to_string(point->size()) + " values, want " +
        std::to_string(dim) + " (or " + std::to_string(dim + 1) +
        " with a sensitive code): " + std::string(line));
  }
  return Status::OK();
}

bool ParseU64Param(std::string_view value, uint64_t* out) {
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, *out);
  return ec == std::errc() && ptr == last;
}

namespace {

/// Appends `values` as a JSON array of numbers.
void AppendDoubles(std::string* out, const std::vector<double>& values) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out->push_back(',');
    AppendDouble(out, values[i]);
  }
  out->push_back(']');
}

/// One serializer for both partition shapes: a Partition prints its rids
/// when asked, a PartitionBox has none to print.
template <typename Part>
void AppendPartitionsJson(std::string* out, std::span<const Part> parts,
                          bool with_rids) {
  out->push_back('[');
  for (size_t p = 0; p < parts.size(); ++p) {
    const Part& part = parts[p];
    if (p != 0) out->push_back(',');
    out->append("{\"count\":");
    AppendUint(out, part.size());
    out->append(",\"lo\":");
    AppendDoubles(out, part.box.lo());
    out->append(",\"hi\":");
    AppendDoubles(out, part.box.hi());
    if constexpr (requires { part.rids; }) {
      if (with_rids) {
        out->append(",\"rids\":[");
        for (size_t i = 0; i < part.rids.size(); ++i) {
          if (i != 0) out->push_back(',');
          AppendUint(out, part.rids[i]);
        }
        out->push_back(']');
      }
    }
    out->push_back('}');
  }
  out->push_back(']');
}

/// The body of GET /release/query at an effective k1 (already clamped to
/// base_k). Only a rids=1 body runs the rid-copying Release; every other
/// body is rendered from the rid-less boxes in one pass.
std::string ReleaseBody(const StitchedSnapshot& stitched, size_t k1,
                        bool summary, bool with_rids) {
  const StitchedInfo& info = stitched.info();
  const std::vector<PartitionBox> boxes = stitched.ReleaseBoxes(k1);
  size_t min_partition = boxes.empty() ? 0 : boxes.front().size();
  size_t max_partition = 0;
  for (const PartitionBox& b : boxes) {
    min_partition = std::min(min_partition, b.size());
    max_partition = std::max(max_partition, b.size());
  }

  // A partition costs ~24 bytes of framing plus 2 * dim numbers; 8 bytes
  // a number fits the Lands End stream (~90 bytes a partition at dim 8),
  // and a body of longer numbers grows once.
  std::string body;
  body.reserve(256 + (summary ? 0 : boxes.size() *
                                        (24 + 16 * stitched.domain().dim())));
  body.append("{\"epoch\":");
  AppendUint(&body, info.epoch);
  body.append(",\"records\":");
  AppendUint(&body, info.records);
  body.append(",\"base_k\":");
  AppendUint(&body, info.base_k);
  body.append(",\"k1\":");
  AppendUint(&body, k1);
  body.append(",\"shards\":");
  AppendUint(&body, info.num_shards);
  // Per-shard epochs make staleness observable: shard i's slice of this
  // release is exactly as fresh as shard_epochs[i] (0 = not covered yet).
  body.append(",\"shard_epochs\":[");
  for (size_t i = 0; i < info.shard_epochs.size(); ++i) {
    if (i != 0) body.push_back(',');
    AppendUint(&body, info.shard_epochs[i]);
  }
  body.append("],\"num_partitions\":");
  AppendUint(&body, boxes.size());
  body.append(",\"min_partition\":");
  AppendUint(&body, min_partition);
  body.append(",\"max_partition\":");
  AppendUint(&body, max_partition);
  body.append(",\"avg_ncp\":");
  AppendDouble(&body, AverageBoxNcp(boxes, stitched.domain()));
  if (!summary) {
    body.append(",\"partitions\":");
    if (with_rids) {
      AppendPartitionsJson<Partition>(&body, stitched.Release(k1).partitions,
                                      /*with_rids=*/true);
    } else {
      AppendPartitionsJson<PartitionBox>(&body, boxes, /*with_rids=*/false);
    }
  }
  body.push_back('}');
  return body;
}

}  // namespace

std::string PartitionsJson(const PartitionSet& ps, bool with_rids) {
  std::string out;
  AppendPartitionsJson<Partition>(&out, ps.partitions, with_rids);
  return out;
}

AnonHttpFrontend::AnonHttpFrontend(ShardedAnonymizationService* service,
                                   const DpServingOptions& dp)
    : service_(service),
      dp_(dp),
      router_(MakeRoutes()) {}

std::vector<Route> AnonHttpFrontend::MakeRoutes() {
  const auto release = [this](const HttpRequest& request) {
    return RenderRelease(service_->CurrentStitched().get(), request);
  };
  const auto dp_release = [this](const HttpRequest& request) {
    return dp_.HandleRelease(service_->CurrentStitched().get(), request);
  };
  const auto dp_query = [this](const HttpRequest& request) {
    return dp_.HandleQuery(service_->CurrentStitched().get(), request);
  };
  const auto repl = [this](ReplHandler handler) {
    return [this, handler](const HttpRequest& request) {
      return HandleRepl(request, handler);
    };
  };
  return {
      {"/ingest", "POST", "ingest",
       [this](const HttpRequest& request) { return HandleIngest(request); }},
      {"/release", "GET", "release", release},
      {"/release/query", "GET", "release", release},
      {"/release/dp", "GET", "dp", dp_release},
      {"/release/dp/query", "GET", "dp", dp_query},
      {"/healthz", "GET", "healthz",
       [this](const HttpRequest&) { return HandleHealthz(); }},
      {"/metrics", "GET", "metrics",
       [this](const HttpRequest&) { return HandleMetrics(); }},
      {"/repl/manifest", "GET", "repl",
       repl(&AnonHttpFrontend::HandleReplManifest)},
      {"/repl/wal", "GET", "repl", repl(&AnonHttpFrontend::HandleReplWal)},
      {"/repl/checkpoint/", "GET", "repl",
       repl(&AnonHttpFrontend::HandleReplCheckpoint)},
  };
}

HttpResponse AnonHttpFrontend::HandleIngest(const HttpRequest& request) {
  const size_t dim = service_->dim();
  std::vector<double> point;
  int32_t sensitive = 0;
  size_t accepted = 0;
  size_t line_number = 0;

  std::string_view body = request.body;
  size_t start = 0;
  while (start <= body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string_view::npos) end = body.size();
    const std::string_view line =
        TrimWs(body.substr(start, end - start));
    start = end + 1;
    ++line_number;
    if (line.empty()) continue;

    if (Status s = ParseRecordLine(line, dim, &point, &sensitive); !s.ok()) {
      return HttpResponse::Json(
          400, "{\"error\":\"InvalidArgument\",\"message\":\"" +
                   JsonEscape(s.message()) + "\",\"line\":" +
                   std::to_string(line_number) + ",\"accepted\":" +
                   std::to_string(accepted) + "}");
    }
    Status s = service_->Ingest(point, sensitive);
    if (!s.ok()) {
      // The service answers FailedPrecondition while stopping; over the
      // wire that is indistinguishable from (and handled like) temporary
      // unavailability. Backpressure and degradation keep their codes and
      // flow through the shared map: kResourceExhausted -> 429,
      // kUnavailable -> 503.
      if (s.code() == StatusCode::kFailedPrecondition) {
        s = Status::Unavailable("service is stopping: " + s.message());
      }
      HttpResponse resp = HttpResponse::FromStatus(s);
      resp.body = "{\"error\":\"" +
                  std::string(StatusCodeToString(s.code())) +
                  "\",\"message\":\"" + JsonEscape(s.message()) +
                  "\",\"line\":" + std::to_string(line_number) +
                  ",\"accepted\":" + std::to_string(accepted) + "}";
      accepted_.fetch_add(accepted, std::memory_order_relaxed);
      return resp;
    }
    ++accepted;
  }
  accepted_.fetch_add(accepted, std::memory_order_relaxed);
  return HttpResponse::Json(
      200, "{\"accepted\":" + std::to_string(accepted) + "}");
}

HttpResponse RenderRelease(const StitchedSnapshot* stitched,
                           const HttpRequest& request,
                           unsigned /*retry_after_s*/) {
  const auto params = ParseQuery(request.query);
  if (Status s = CheckQueryKeys(params, {"k1", "summary", "rids"}); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  uint64_t k1 = 0;  // 0 = the snapshot's base granularity
  bool summary = false;
  bool with_rids = false;
  if (Status s = ParseUintParam(params, "k1", 1, &k1); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  if (Status s = ParseFlagParam(params, "summary", &summary); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  if (Status s = ParseFlagParam(params, "rids", &with_rids); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }

  if (stitched == nullptr) return NothingPublished();
  const size_t effective_k1 = std::max(k1, stitched->info().base_k);
  const auto render = [&] {
    return ReleaseBody(*stitched, effective_k1, summary, with_rids);
  };
  // rids=1 bodies are the largest and the rarest, so they are never
  // memoized: the memo holds only rid-less bodies.
  return HttpResponse::Json(
      200, with_rids ? render()
                     : stitched->RenderOnce(effective_k1, summary, render));
}

namespace {

/// The serving key: the configured shared secret, or a fresh random key
/// when none is configured (releases stay DP; they are just not
/// reproducible across independently started processes).
DpNoiseKey ServingKey(const std::string& secret) {
  return secret.empty() ? RandomDpNoiseKey() : DeriveDpNoiseKey(secret);
}

}  // namespace

DpServing::DpServing(const DpServingOptions& options)
    : key_(ServingKey(options.key_secret)),
      utility_in_metrics_(options.utility_in_metrics),
      ledger_([&options] {
        DpLedgerOptions ledger_options;
        ledger_options.budget = options.budget;
        ledger_options.lifetime_budget = options.lifetime_budget;
        return ledger_options;
      }()) {}

StatusOr<std::shared_ptr<const DpRelease>> DpServing::Acquire(
    const StitchedSnapshot& stitched, double epsilon) {
  size_t height = 0;
  KANON_ASSIGN_OR_RETURN(DpCells cells, stitched.SummedDpCells(&height));
  const StitchedInfo& info = stitched.info();
  // The ledger memoizes per (release point, epsilon): only the first build
  // of a distinct epsilon draws noise and is charged.
  return ledger_.Acquire(info.epoch, info.records, epsilon, [&] {
    return BuildDpRelease(*cells, stitched.domain(), height, epsilon, key_);
  });
}

HttpResponse DpServing::HandleRelease(const StitchedSnapshot* stitched,
                                      const HttpRequest& request) {
  const auto params = ParseQuery(request.query);
  if (Status s = CheckQueryKeys(params, {"epsilon"}); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  double epsilon = 0.0;
  if (Status s = ParseEpsilonParam(params, &epsilon); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  if (stitched == nullptr) return NothingPublished();
  auto release_or = Acquire(*stitched, epsilon);
  if (!release_or.ok()) {
    // kResourceExhausted -> 429 (budget spent for this release point),
    // kFailedPrecondition -> 409 (publisher runs with DP off).
    return HttpResponse::FromStatus(release_or.status());
  }
  // The epoch is transport metadata, not part of the released body: a
  // stitched epoch is the sum of per-shard epochs and would differ across
  // shard counts even when the released data is byte-identical.
  HttpResponse resp = HttpResponse::Json(200, (*release_or)->body);
  resp.headers.emplace_back("X-Kanon-Epoch",
                            std::to_string(stitched->info().epoch));
  return resp;
}

HttpResponse DpServing::HandleQuery(const StitchedSnapshot* stitched,
                                    const HttpRequest& request) {
  const auto params = ParseQuery(request.query);
  if (Status s = CheckQueryKeys(params, {"lo", "hi", "epsilon"}); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  double epsilon = 0.0;
  if (Status s = ParseEpsilonParam(params, &epsilon); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  const std::string* lo_s = QueryParam(params, "lo");
  const std::string* hi_s = QueryParam(params, "hi");
  if (lo_s == nullptr || hi_s == nullptr) {
    return HttpResponse::FromStatus(Status::InvalidArgument(
        "lo and hi are required (comma-separated per-dimension bounds)"));
  }
  if (stitched == nullptr) return NothingPublished();
  const size_t dim = stitched->domain().dim();
  std::vector<double> lo;
  std::vector<double> hi;
  if (Status s = ParseBoundsParam(*lo_s, dim, "lo", &lo); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  if (Status s = ParseBoundsParam(*hi_s, dim, "hi", &hi); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  for (size_t d = 0; d < dim; ++d) {
    if (lo[d] > hi[d]) {
      return HttpResponse::FromStatus(Status::InvalidArgument(
          "lo[" + std::to_string(d) + "] > hi[" + std::to_string(d) +
          "]: empty query box"));
    }
  }
  auto release_or = Acquire(*stitched, epsilon);
  if (!release_or.ok()) return HttpResponse::FromStatus(release_or.status());
  const DpRelease& release = **release_or;
  const Mbr query = Mbr::FromBounds(lo, hi);
  // Answered from the memoized noisy hierarchy only — post-processing of
  // an already-released hierarchy, so repeat queries cost no budget and
  // raw records are never touched.
  const double count = DpRangeCount(release.counts, release.grid, query);
  std::string body;
  body.reserve(64 + 48 * dim);
  body.append("{\"semantics\":\"dp\",\"epsilon\":");
  AppendDouble(&body, release.epsilon);
  body.append(",\"lo\":");
  AppendDoubles(&body, lo);
  body.append(",\"hi\":");
  AppendDoubles(&body, hi);
  body.append(",\"count\":");
  AppendDouble(&body, count);
  body.push_back('}');
  HttpResponse resp = HttpResponse::Json(200, std::move(body));
  resp.headers.emplace_back("X-Kanon-Epoch",
                            std::to_string(stitched->info().epoch));
  return resp;
}

void DpServing::AppendMetrics(std::string* out,
                              const StitchedSnapshot* stitched) {
  AppendPromMetric(out, "kanon_dp_budget", "gauge", ledger_.budget());
  AppendPromMetric(out, "kanon_dp_lifetime_budget", "gauge",
                   ledger_.lifetime_budget());
  AppendPromMetric(out, "kanon_dp_lifetime_spent", "gauge",
                   ledger_.LifetimeSpent());
  AppendPromMetric(out, "kanon_dp_releases_total", "counter",
                   static_cast<double>(ledger_.releases_built()));
  AppendPromMetric(out, "kanon_dp_cache_hits_total", "counter",
                   static_cast<double>(ledger_.cache_hits()));
  AppendPromMetric(out, "kanon_dp_rejected_total", "counter",
                   static_cast<double>(ledger_.rejected()));
  AppendPromMetric(out, "kanon_dp_evicted_total", "counter",
                   static_cast<double>(ledger_.evicted()));
  if (stitched == nullptr) return;
  const StitchedInfo& info = stitched->info();
  AppendPromMetric(out, "kanon_dp_budget_spent", "gauge",
                   ledger_.Spent(info.epoch, info.records));
  size_t height = 0;
  const auto cells_or = stitched->SummedDpCells(&height);
  if (!cells_or.ok()) return;  // DP cell accounting disabled on the publisher
  AppendPromMetric(out, "kanon_dp_height", "gauge",
                   static_cast<double>(height));

  // Fig-12-style utility pair, cached per release point and evaluated at a
  // fixed internal epsilon=1 release off the server key, so repeat scrapes
  // are deterministic and never draw on the request budget. It is still a
  // truth-derived statistic (|est - truth| / truth against exact counts),
  // published *outside* the DP accounting — which is why it is off unless
  // the operator opted in for a trusted-plane /metrics (DESIGN.md §17).
  if (!utility_in_metrics_) return;
  DpUtilityReport report;
  {
    std::lock_guard<std::mutex> lock(util_mu_);
    if (!util_valid_ || util_epoch_ != info.epoch ||
        util_records_ != info.records) {
      const DpGrid grid(stitched->domain(), height);
      const DpHierarchyCounts dp =
          NoisyConsistentHierarchy(**cells_or, height, 1.0, key_);
      util_ = EvaluateReleaseUtility(**cells_or, grid, dp,
                                     stitched->Release(info.base_k));
      util_valid_ = true;
      util_epoch_ = info.epoch;
      util_records_ = info.records;
    }
    report = util_;
  }
  AppendPromMetric(out, "kanon_release_utility_queries", "gauge",
                   static_cast<double>(report.num_queries));
  AppendPromMetric(out, "kanon_release_avg_range_error", "gauge",
                   report.kanon_avg_rel_error, "semantics=\"kanon\"");
  AppendPromSample(out, "kanon_release_avg_range_error", "semantics=\"dp\"",
                   report.dp_avg_rel_error);
}

HttpResponse AnonHttpFrontend::HandleHealthz() {
  const ServiceHealth health = service_->health();
  const auto stitched = service_->CurrentStitched();
  std::string body = "{\"health\":\"" +
                     std::string(ServiceHealthName(health)) + "\"";
  body += ",\"shards\":[";
  for (size_t i = 0; i < service_->num_shards(); ++i) {
    if (i != 0) body += ",";
    body += "\"" +
            std::string(ServiceHealthName(service_->shard(i)->health())) +
            "\"";
  }
  body += "]";
  if (stitched != nullptr) {
    const StitchedInfo& info = stitched->info();
    body += ",\"epoch\":" + std::to_string(info.epoch) +
            ",\"records\":" + std::to_string(info.records);
  }
  if (health != ServiceHealth::kServing) {
    // Reads still work in every state; only ingest is down. Say so.
    body += ",\"reads\":\"available\",\"degraded_reason\":\"" +
            JsonEscape(service_->degraded_reason()) + "\"";
  }
  body += "}";
  // Degraded healthz backs probers off like every other 503.
  HttpResponse resp =
      health == ServiceHealth::kServing
          ? HttpResponse::Json(200, "")
          : HttpResponse::FromStatus(Status::Unavailable("not serving"));
  resp.body = std::move(body);
  return resp;
}

HttpResponse AnonHttpFrontend::HandleRepl(const HttpRequest& request,
                                          ReplHandler handler) {
  const DurabilityOptions& durability = service_->options().service.durability;
  if (!durability.enabled()) {
    return HttpResponse::FromStatus(Status::FailedPrecondition(
        "replication requires a durable leader (start with --wal-dir)"));
  }
  return (this->*handler)(request, ParseQuery(request.query),
                          ShardWalDir(durability.wal_dir, 0));
}

HttpResponse AnonHttpFrontend::HandleReplManifest(const HttpRequest&,
                                                  const QueryParams& params,
                                                  const std::string& dir) {
  if (Status s = CheckQueryKeys(params, {}); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  const AnonymizationService* svc = service_->shard(0);
  const ServiceOptions& opts = service_->options().service;
  LeaderManifest m;
  m.shards = service_->num_shards();
  m.dim = service_->dim();
  m.base_k = opts.anonymizer.base_k;
  m.leaf_capacity_factor = opts.anonymizer.leaf_capacity_factor;
  m.max_fanout = opts.anonymizer.max_fanout;
  m.dp_height = opts.dp_height;
  m.durable_lsn = svc->Stats().wal_synced_lsn;
  if (const auto snapshot = svc->CurrentSnapshot()) {
    m.epoch = snapshot->info().epoch;
    m.epoch_records = snapshot->info().records;
  }
  auto checkpoint_or = LoadManifest(dir);
  if (checkpoint_or.ok()) {
    m.checkpoint = std::move(checkpoint_or).value();
    m.checkpoint_lsn = m.checkpoint.checkpoint_lsn;
  } else if (checkpoint_or.status().code() != StatusCode::kNotFound) {
    return HttpResponse::FromStatus(checkpoint_or.status());
  }  // else a fresh leader: bootstrap is WAL-only
  return HttpResponse::Json(200, EncodeLeaderManifest(m));
}

HttpResponse AnonHttpFrontend::HandleReplCheckpoint(
    const HttpRequest& request, const QueryParams& params,
    const std::string& dir) {
  if (Status s = CheckQueryKeys(params, {}); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  const std::string& path = request.path;
  const std::string lsn_str = path.substr(std::strlen("/repl/checkpoint/"));
  uint64_t lsn = 0;
  if (!ParseU64Param(lsn_str, &lsn) || lsn == 0) {
    return HttpResponse::FromStatus(Status::InvalidArgument(
        "expected /repl/checkpoint/<lsn>, got '" + path + "'"));
  }
  const auto manifest_or = LoadManifest(dir);
  if (!manifest_or.ok()) {
    if (manifest_or.status().code() == StatusCode::kNotFound) {
      return ReplGone("no checkpoint exists yet; re-fetch /repl/manifest");
    }
    return HttpResponse::FromStatus(manifest_or.status());
  }
  const CheckpointManifest& m = *manifest_or;
  if (m.checkpoint_lsn != lsn) {
    return ReplGone("checkpoint at lsn " + lsn_str +
                    " was superseded (current: lsn " +
                    std::to_string(m.checkpoint_lsn) +
                    "); re-fetch /repl/manifest");
  }
  std::string bytes;
  const Status read =
      ReadFileToString(Env::Default(), dir + "/" + m.file, &bytes);
  if (!read.ok()) {
    if (read.code() == StatusCode::kNotFound) {
      // GC'd between the manifest load and this read.
      return ReplGone("checkpoint file " + m.file +
                      " disappeared mid-fetch; re-fetch /repl/manifest");
    }
    return HttpResponse::FromStatus(read);
  }
  HttpResponse resp;
  resp.status = 200;
  resp.content_type = "application/octet-stream";
  resp.body = std::move(bytes);
  resp.headers.emplace_back("X-Kanon-Checkpoint-Lsn", std::to_string(lsn));
  return resp;
}

HttpResponse AnonHttpFrontend::HandleReplWal(const HttpRequest&,
                                             const QueryParams& params,
                                             const std::string& dir) {
  if (Status s = CheckQueryKeys(params, {"from_lsn", "max_lsn", "max_bytes"});
      !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  uint64_t from_lsn = 0;
  const std::string* from = QueryParam(params, "from_lsn");
  if (from == nullptr || !ParseU64Param(*from, &from_lsn) || from_lsn == 0) {
    return HttpResponse::FromStatus(Status::InvalidArgument(
        "from_lsn must be a positive integer (the first LSN wanted)"));
  }
  uint64_t max_bytes = 1u << 20;
  if (Status s = ParseUintParam(params, "max_bytes", 1, &max_bytes); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }
  max_bytes = std::min(max_bytes, kReplMaxBatchBytes);
  uint64_t max_lsn = 0;  // 0 = durable horizon only
  if (Status s = ParseUintParam(params, "max_lsn", 0, &max_lsn); !s.ok()) {
    return HttpResponse::FromStatus(s);
  }

  const AnonymizationService* svc = service_->shard(0);
  const uint64_t durable_lsn = svc->Stats().wal_synced_lsn;
  // Never ship past the durable horizon: un-fsynced entries could vanish in
  // a crash and have their LSNs reassigned — a follower that applied the
  // old bytes could never tell.
  uint64_t cap = durable_lsn;
  if (max_lsn > 0) cap = std::min(cap, max_lsn);

  auto range_or = ReadWalRange(dir, service_->dim(), from_lsn, cap,
                               static_cast<size_t>(max_bytes));
  if (!range_or.ok()) {
    if (range_or.status().code() == StatusCode::kNotFound) {
      return ReplGone(range_or.status().message());
    }
    return HttpResponse::FromStatus(range_or.status());
  }
  WalRangeResult range = std::move(range_or).value();

  // The epoch target rides along on every poll, so a caught-up follower
  // needs no second request to learn the leader published again. Read
  // *after* the WAL so the advertised (epoch, records) never refers to
  // entries the follower cannot fetch on its next poll.
  uint64_t epoch = 0;
  uint64_t epoch_records = 0;
  if (const auto snapshot = svc->CurrentSnapshot()) {
    epoch = snapshot->info().epoch;
    epoch_records = snapshot->info().records;
  }
  return EncodeWalBatch({std::move(range.frames), range.first_lsn,
                         range.last_lsn, durable_lsn, epoch, epoch_records});
}

HttpResponse AnonHttpFrontend::HandleMetrics() {
  const ShardedServiceStats sharded = service_->Stats();
  std::string out;
  out.reserve(16 << 10);
  AppendPromMetric(&out, "kanon_shards", "gauge",
                   static_cast<double>(service_->num_shards()));
  // Serving-layer and durability counters, merged across shards (all zero
  // without a WAL; exported regardless so dashboards need no conditional
  // wiring).
  for (const ServiceCounter& counter : kServiceCounters) {
    AppendPromMetric(&out, counter.name, counter.type,
                     CounterValue(counter, sharded.total));
  }

  // Differentially private release subsystem: ledger counters plus the
  // per-release-point utility pair (k-anon vs DP range-query error).
  dp_.AppendMetrics(&out, service_->CurrentStitched().get());

  AppendPromOneHot(&out, "kanon_health", sharded.total.health,
                   kNumServiceHealths, ServiceHealthName);

  // Per-shard series with a shard label: the per_shard counters, then the
  // per_shard gauges, then whether each shard is degraded.
  const auto per_shard = [&](std::string_view name, std::string_view type,
                             auto value) {
    for (size_t i = 0; i < sharded.shards.size(); ++i) {
      const std::string label = "shard=\"" + std::to_string(i) + "\"";
      if (i == 0) {
        AppendPromMetric(&out, name, type, value(sharded.shards[i]), label);
      } else {
        AppendPromSample(&out, name, label, value(sharded.shards[i]));
      }
    }
  };
  for (const std::string_view type : {"counter", "gauge"}) {
    for (const ServiceCounter& counter : kServiceCounters) {
      if (!counter.per_shard || counter.type != type) continue;
      const std::string name =
          "kanon_shard_" + std::string(counter.name + std::strlen("kanon_"));
      per_shard(name, type, [&](const ServiceStats& s) {
        return CounterValue(counter, s);
      });
    }
  }
  per_shard("kanon_shard_degraded", "gauge", [](const ServiceStats& s) {
    return s.health == ServiceHealth::kDegraded ? 1.0 : 0.0;
  });

  return router_.Metrics(out);
}

}  // namespace kanon::net
