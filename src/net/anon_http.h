#ifndef KANON_NET_ANON_HTTP_H_
#define KANON_NET_ANON_HTTP_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dp/dp_ledger.h"
#include "net/http_server.h"
#include "shard/sharded_service.h"

namespace kanon::net {

/// Endpoint families the front-end tracks metrics for.
enum class Endpoint : size_t {
  kIngest = 0,
  kRelease,
  kDp,
  kHealthz,
  kMetrics,
  kRepl,
  kOther,
};
constexpr size_t kNumEndpoints = 7;
const char* EndpointName(Endpoint endpoint);

struct AnonHttpOptions {
  /// Advisory Retry-After (seconds) attached to 429/503 ingest responses.
  unsigned retry_after_s = 1;
  /// Env for the replication endpoints' reads of WAL segments and
  /// checkpoint files (nullptr = Env::Default()). Kept separate from the
  /// service's durability env so fault injection on the write path does
  /// not leak into replication serving unless a test wires it there.
  Env* repl_env = nullptr;
  /// Hard cap on one /repl/wal response body; requests asking for more are
  /// clamped (the follower just asks again from its new position).
  size_t repl_max_batch_bytes = 8u << 20;
  /// Total epsilon spendable per release point on /release/dp (<= 0 =
  /// unlimited).
  double dp_budget = 4.0;
  /// Total epsilon spendable across *all* release points (<= 0 =
  /// unlimited): the cap on cumulative per-record loss over the service
  /// lifetime (see DpBudgetLedger).
  double dp_lifetime_budget = 0.0;
  /// Operator secret the server-held noise key is derived from. Empty =
  /// a fresh random key per process (still DP; not reproducible across
  /// servers). Give every shard/leader/follower of one deployment the
  /// same secret (--dp-key) for byte-identical releases. Never accepted
  /// from requests, never serialized anywhere.
  std::string dp_key;
  /// Publish the truth-derived kanon_release_avg_range_error utility pair
  /// in /metrics. Off by default: the statistic is computed against exact
  /// counts outside the DP accounting, so it is only safe when /metrics
  /// is scraped from a trusted operator plane (see DESIGN.md §17).
  bool dp_metrics_utility = false;
};

/// Configuration of the shared DP serving half (see DpServing).
struct DpServingOptions {
  double budget = 4.0;           // per release point, <= 0 = unlimited
  double lifetime_budget = 0.0;  // across all points, <= 0 = unlimited
  /// Operator secret the noise key is derived from; empty = random
  /// per-process key. See AnonHttpOptions::dp_key.
  std::string key_secret;
  /// Publish the truth-derived utility pair in /metrics (trusted-plane
  /// only; see AnonHttpOptions::dp_metrics_utility).
  bool utility_in_metrics = false;
  unsigned retry_after_s = 1;
};

/// The DP serving half shared by the leader frontend and the replication
/// follower: parameter parsing, the per-release-point budget ledger, the
/// memoized noisy hierarchies, range queries answered from them, and the
/// kanon_dp_* metrics. Both sides delegating here is what makes a
/// follower's /release/dp body byte-identical to its leader's at the same
/// publication point — there is exactly one serializer and one noise path,
/// provided the operator configured both with the same noise-key secret.
///
///   GET /release/dp?epsilon=     the full noisy hierarchy's leaf cells
///        (consistent, non-negative, parent == sum(children)); a pure
///        function of (record multiset, domain, height, epsilon, server
///        key), so identical at any shard count. Epoch rides in
///        X-Kanon-Epoch. 429 once the release point's distinct epsilon
///        builds would exceed a budget; re-serving a memoized release is
///        free.
///   GET /release/dp/query?lo=&hi=&epsilon=   a range count answered from
///        the memoized hierarchy — never from raw records.
///
/// The noise is drawn from a server-held secret key; there is no seed
/// parameter (a client-choosable or published seed would let any consumer
/// regenerate and subtract the noise, voiding the DP guarantee). Unknown
/// or malformed query parameters — including `seed` — are 400s, never
/// ignored.
class DpServing {
 public:
  explicit DpServing(const DpServingOptions& options);

  HttpResponse HandleRelease(const StitchedSnapshot* stitched,
                             const HttpRequest& request);
  HttpResponse HandleQuery(const StitchedSnapshot* stitched,
                           const HttpRequest& request);

  /// Appends kanon_dp_* series; with utility_in_metrics also the
  /// fig-12-style kanon_release_avg_range_error{semantics=...} pair for
  /// the current release point (cached per point; evaluated at a fixed
  /// internal epsilon so scraping /metrics never draws on the budget —
  /// but computed against exact truth, hence the trusted-plane gate).
  void AppendMetrics(std::string* out, const StitchedSnapshot* stitched);

  const DpBudgetLedger& ledger() const { return ledger_; }

 private:
  StatusOr<std::shared_ptr<const DpRelease>> Acquire(
      const StitchedSnapshot& stitched, double epsilon);

  const DpNoiseKey key_;
  const bool utility_in_metrics_;
  const unsigned retry_after_s_;
  DpBudgetLedger ledger_;

  std::mutex util_mu_;
  bool util_valid_ = false;
  uint64_t util_epoch_ = 0;
  uint64_t util_records_ = 0;
  DpUtilityReport util_;
};

/// The HTTP face of the (sharded) anonymization service — maps the
/// service's concurrency, routing and health contracts onto protocol
/// semantics:
///
///   POST /ingest           NDJSON batch (or a single line): each line is a
///                          JSON array or bare CSV of dim (or dim+1, last =
///                          sensitive code) numbers, routed to its shard by
///                          the service's ShardRouter. 200 {"accepted":N};
///                          per-line errors keep their shard's semantics:
///                          429 on reject-backpressure, 503 while that
///                          shard is degraded or stopping — both with the
///                          accepted count so far, so clients know exactly
///                          what was acked.
///   GET  /release          base-granularity stitched release of the
///                          current per-shard epoch snapshots (lock-free;
///                          never blocks ingest). The body records
///                          "shards" and per-shard "shard_epochs" so the
///                          staleness of every slice is observable.
///   GET  /release/query    ?k1=N multigranular stitched release;
///                          &summary=1 omits the partition list; &rids=1
///                          includes (shard-local) record ids.
///   GET  /release/dp       ?epsilon= (epsilon)-DP release of the
///                          stitched record multiset (see DpServing),
///                          noised from the server-held secret key:
///                          byte-identical at any shard count, 429 once
///                          the release point's budget is spent.
///   GET  /release/dp/query ?lo=&hi=&epsilon= range count answered
///                          from the memoized noisy hierarchy.
///   GET  /healthz          200 while every shard serves; 503 when any
///                          shard is degraded or the service stopped, with
///                          per-shard health in the body.
///   GET  /metrics          Prometheus text exposition: aggregate
///                          ServiceStats and durability counters, per-shard
///                          series with a shard label, kanon_build_info,
///                          queue depth, listener stats and per-endpoint
///                          latency histograms (fixed log-spaced buckets).
///   GET  /repl/manifest    Replication bootstrap metadata for one shard
///                          (?shard=i, default 0): checkpoint manifest,
///                          durable (fsynced) LSN horizon and the current
///                          published epoch. 409 unless the leader runs
///                          with durability on.
///   GET  /repl/checkpoint/<lsn>  The raw checkpoint file bytes named by
///                          the manifest (verifiable against its recorded
///                          CRC32). 410 Gone once that checkpoint has been
///                          superseded and GC'd — re-fetch the manifest.
///   GET  /repl/wal         ?from_lsn=&max_bytes=&max_lsn=&shard= —
///                          CRC-framed WAL entries straight from the
///                          segment files, capped at the durable horizon.
///                          410 Gone when from_lsn was truncated behind a
///                          checkpoint (the typed "need a new checkpoint"
///                          signal); response headers X-Kanon-First-Lsn,
///                          X-Kanon-Last-Lsn, X-Kanon-Durable-Lsn,
///                          X-Kanon-Epoch, X-Kanon-Epoch-Records carry the
///                          tailing state machine's inputs.
///
/// Handle() is thread-safe and is exactly the HttpHandler the HttpServer
/// worker pool runs; it may block inside Ingest under kBlock backpressure,
/// which is the intended end-to-end backpressure path: a full shard queue
/// slows that shard's HTTP clients down instead of growing memory.
class AnonHttpFrontend {
 public:
  explicit AnonHttpFrontend(ShardedAnonymizationService* service,
                            AnonHttpOptions options = {});

  /// The handler to hand to HttpServer.
  HttpResponse Handle(const HttpRequest& request);

  /// Optional: lets /metrics include listener-level counters. Set before
  /// the server starts taking traffic.
  void SetServerStats(std::function<HttpServerStats()> fn) {
    server_stats_ = std::move(fn);
  }

  /// Event backend label for kanon_build_info ("epoll" / "poll"). Set
  /// after HttpServer::Start, before traffic.
  void SetBackendLabel(std::string backend) {
    backend_label_ = std::move(backend);
  }

  /// Records ingested over HTTP and acknowledged with 200 (the
  /// zero-lost-acks invariant is stated against this counter).
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// The DP budget ledger behind /release/dp (read-only counters).
  const DpBudgetLedger& dp_ledger() const { return dp_.ledger(); }

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

  HttpResponse Route(const HttpRequest& request, Endpoint* endpoint);
  HttpResponse HandleIngest(const HttpRequest& request);
  HttpResponse HandleRelease(const HttpRequest& request);
  HttpResponse HandleDp(const HttpRequest& request);
  HttpResponse HandleHealthz();
  HttpResponse HandleMetrics();
  HttpResponse HandleRepl(const HttpRequest& request);
  HttpResponse HandleReplManifest(const std::string& dir, size_t shard,
                                  Env* env);
  HttpResponse HandleReplCheckpoint(const std::string& dir,
                                    const std::string& path, Env* env);
  HttpResponse HandleReplWal(const HttpRequest& request,
                             const std::string& dir, size_t shard, Env* env);
  void Observe(Endpoint endpoint, int http_status, double latency_ms);

  ShardedAnonymizationService* const service_;
  const AnonHttpOptions options_;
  DpServing dp_;
  std::function<HttpServerStats()> server_stats_;
  std::string backend_label_ = "inproc";
  std::atomic<uint64_t> accepted_{0};
  std::array<EndpointMetrics, kNumEndpoints> metrics_;
};

/// Parses one ingest line — a JSON array "[1, 2.5, 3]" or bare CSV
/// "1,2.5,3" — into a point of exactly `dim` values plus an optional
/// trailing sensitive code (when the line has dim+1 values). Exposed for
/// tests.
Status ParseRecordLine(std::string_view line, size_t dim,
                       std::vector<double>* point, int32_t* sensitive);

/// Renders the partition list of a release as a JSON array (deterministic
/// formatting: %.17g round-trips doubles exactly). Shared by the endpoint
/// and by tests asserting HTTP and in-process releases are identical.
std::string PartitionsJson(const PartitionSet& ps, bool with_rids);

/// Renders a full GET /release(/query) response off a stitched snapshot —
/// deterministic byte-for-byte in the snapshot's contents, which is what
/// lets a replication follower at the same epoch serve the identical body.
/// `stitched` == nullptr yields the 503 "nothing published yet" response.
/// Shared by AnonHttpFrontend and the follower frontend.
HttpResponse RenderRelease(const StitchedSnapshot* stitched,
                           const HttpRequest& request, unsigned retry_after_s);

/// Appends one `# TYPE` + sample line in the Prometheus text exposition.
/// Shared by the leader's /metrics and the follower's.
void AppendPromMetric(std::string* out, std::string_view name,
                      std::string_view type, double value,
                      std::string_view labels = "");

}  // namespace kanon::net

#endif  // KANON_NET_ANON_HTTP_H_
