#ifndef KANON_NET_ANON_HTTP_H_
#define KANON_NET_ANON_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dp/dp_ledger.h"
#include "net/http_server.h"
#include "net/router.h"
#include "shard/sharded_service.h"

namespace kanon::net {

/// Configuration of the DP serving half (see DpServing), for the leader
/// frontend and the follower alike.
struct DpServingOptions {
  /// Total epsilon spendable per release point on /release/dp (<= 0 =
  /// unlimited).
  double budget = 4.0;
  /// Total epsilon spendable across *all* release points (<= 0 =
  /// unlimited): the cap on cumulative per-record loss over the service
  /// lifetime (see DpBudgetLedger).
  double lifetime_budget = 0.0;
  /// Operator secret the server-held noise key is derived from. Empty =
  /// a fresh random key per process (still DP; not reproducible across
  /// servers). Give every shard/leader/follower of one deployment the
  /// same secret (--dp-key) for byte-identical releases. Never accepted
  /// from requests, never serialized anywhere.
  std::string key_secret;
  /// Publish the truth-derived kanon_release_avg_range_error utility pair
  /// in /metrics. Off by default: the statistic is computed against exact
  /// counts outside the DP accounting, so it is only safe when /metrics
  /// is scraped from a trusted operator plane (see DESIGN.md §17).
  bool utility_in_metrics = false;
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
///                          series with a shard label, queue depth, and the
///                          Router's build info, listener stats and
///                          per-endpoint latency histograms.
///   GET  /repl/manifest    Replication bootstrap metadata: the leader's
///                          shard count (a follower needs 1), checkpoint
///                          manifest, durable (fsynced) LSN horizon and
///                          the current published epoch. 409 unless the
///                          leader runs with durability on.
///   GET  /repl/checkpoint/<lsn>  The raw checkpoint file bytes named by
///                          the manifest (verifiable against its recorded
///                          CRC32). 410 Gone once that checkpoint has been
///                          superseded and GC'd — re-fetch the manifest.
///   GET  /repl/wal         ?from_lsn=&max_bytes=&max_lsn= —
///                          CRC-framed WAL entries straight from the
///                          segment files, capped at the durable horizon
///                          and at 8 MiB per response. A malformed value
///                          or an unknown key on any /repl path is a 400.
///                          410 Gone when from_lsn was truncated behind a
///                          checkpoint (the typed "need a new checkpoint"
///                          signal); response headers X-Kanon-First-Lsn,
///                          X-Kanon-Last-Lsn, X-Kanon-Durable-Lsn,
///                          X-Kanon-Epoch, X-Kanon-Epoch-Records carry the
///                          tailing state machine's inputs.
///
/// The paths form one Router table: 404, 405 + Allow, HEAD on the GET
/// routes and the per-endpoint request series are the Router's.
/// Handle() is thread-safe and is exactly the HttpHandler the HttpServer
/// worker pool runs; it may block inside Ingest under kBlock backpressure,
/// which is the intended end-to-end backpressure path: a full shard queue
/// slows that shard's HTTP clients down instead of growing memory.
class AnonHttpFrontend {
 public:
  explicit AnonHttpFrontend(ShardedAnonymizationService* service,
                            const DpServingOptions& dp = {});

  /// The handler to hand to HttpServer.
  HttpResponse Handle(const HttpRequest& request) {
    return router_.Handle(request);
  }

  /// See Router::SetServerStats and Router::SetBackendLabel.
  void SetServerStats(std::function<HttpServerStats()> fn) {
    router_.SetServerStats(std::move(fn));
  }
  void SetBackendLabel(std::string backend) {
    router_.SetBackendLabel(std::move(backend));
  }

  /// Records ingested over HTTP and acknowledged with 200 (the
  /// zero-lost-acks invariant is stated against this counter).
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// The DP budget ledger behind /release/dp (read-only counters).
  const DpBudgetLedger& dp_ledger() const { return dp_.ledger(); }

 private:
  /// A /repl/* handler, run against the WAL directory `dir` of shard 0
  /// (a follower needs a 1-shard leader). Each one rejects query keys it
  /// does not know.
  using ReplHandler = HttpResponse (AnonHttpFrontend::*)(
      const HttpRequest& request, const QueryParams& params,
      const std::string& dir);

  std::vector<Route> MakeRoutes();
  HttpResponse HandleIngest(const HttpRequest& request);
  HttpResponse HandleHealthz();
  HttpResponse HandleMetrics();
  /// Checks durability, then runs `handler`.
  HttpResponse HandleRepl(const HttpRequest& request, ReplHandler handler);
  HttpResponse HandleReplManifest(const HttpRequest& request,
                                  const QueryParams& params,
                                  const std::string& dir);
  HttpResponse HandleReplCheckpoint(const HttpRequest& request,
                                    const QueryParams& params,
                                    const std::string& dir);
  HttpResponse HandleReplWal(const HttpRequest& request,
                             const QueryParams& params,
                             const std::string& dir);

  ShardedAnonymizationService* const service_;
  DpServing dp_;
  std::atomic<uint64_t> accepted_{0};
  Router router_;
};

/// Parses one ingest line — a JSON array "[1, 2.5, 3]" or bare CSV
/// "1,2.5,3" — into a point of exactly `dim` values plus an optional
/// trailing sensitive code (when the line has dim+1 values). Exposed for
/// tests.
Status ParseRecordLine(std::string_view line, size_t dim,
                       std::vector<double>* point, int32_t* sensitive);

/// Strict unsigned integer: the whole value must be decimal digits (no
/// sign, no space) and fit in 64 bits. Query parameters and the /repl
/// codec both parse through it, so no malformed number becomes a default.
bool ParseU64Param(std::string_view value, uint64_t* out);

/// Renders the partition list of a release as a JSON array. Numbers are
/// the shortest text that parses back to the exact double (AppendDouble in
/// common/number_text.h), so the bytes are deterministic. The endpoint
/// renders through the same serializer, which lets tests assert that HTTP
/// and in-process releases are identical.
std::string PartitionsJson(const PartitionSet& ps, bool with_rids);

/// Renders a full GET /release(/query) response off a stitched snapshot —
/// deterministic byte-for-byte in the snapshot's contents, which is what
/// lets a replication follower at the same epoch serve the identical body.
/// `stitched` == nullptr yields the 503 "nothing published yet" response,
/// with the Retry-After of HttpResponse::FromStatus. `retry_after_s` is
/// ignored; it stays for source compatibility with older callers.
/// Shared by AnonHttpFrontend and the follower frontend. Every body
/// without rids is rendered once per (snapshot, k1, summary) and then
/// copied (StitchedSnapshot::RenderOnce); a rids=1 body is rendered anew.
HttpResponse RenderRelease(const StitchedSnapshot* stitched,
                           const HttpRequest& request,
                           unsigned retry_after_s = 1);

}  // namespace kanon::net

#endif  // KANON_NET_ANON_HTTP_H_
