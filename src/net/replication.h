#ifndef KANON_NET_REPLICATION_H_
#define KANON_NET_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "anon/rtree_anonymizer.h"
#include "common/status.h"
#include "durability/checkpoint.h"
#include "net/anon_http.h"
#include "net/http_client.h"
#include "shard/stitched_snapshot.h"

namespace kanon::net {

/// Replication state machine of a follower, exported one-hot in /metrics.
enum class ReplState : int {
  kBootstrapping = 0,  // fetching manifest / downloading a checkpoint
  kFollowing,          // tailing the leader WAL; within the staleness bound
  kLagging,            // connected but past --max-staleness-ms
  kDisconnected,       // leader unreachable; backing off before a retry
};
constexpr int kNumReplStates = 4;
const char* ReplStateName(ReplState state);

/// Everything /repl/manifest reports. EncodeLeaderManifest (the leader) and
/// DecodeLeaderManifest (ReplicationClient) are the one codec of its body.
struct LeaderManifest {
  /// The leader's shard count: a follower refuses anything but 1.
  size_t shards = 0;
  size_t dim = 0;
  size_t base_k = 0;
  size_t leaf_capacity_factor = 0;
  size_t max_fanout = 0;
  /// DP grid height the leader bins publication cells at (0 = DP off).
  size_t dp_height = 0;
  uint64_t durable_lsn = 0;
  uint64_t epoch = 0;
  uint64_t epoch_records = 0;
  uint64_t checkpoint_lsn = 0;  // 0 = no checkpoint, bootstrap is WAL-only
  CheckpointManifest checkpoint;  // valid only when checkpoint_lsn > 0
};

std::string EncodeLeaderManifest(const LeaderManifest& manifest);
/// A known key that is missing, or whose value is not a whole decimal
/// number (a string for the checkpoint file), is Corruption; unknown keys
/// are skipped, so an older or newer leader's extra keys do no harm (an
/// older leader still sends the retired "shard" and "compact").
StatusOr<LeaderManifest> DecodeLeaderManifest(std::string_view body);

/// One /repl/wal answer: CRC-framed entries as the body, the tailing state
/// machine's inputs as X-Kanon-* headers. EncodeWalBatch and DecodeWalBatch
/// are its one codec; a missing or non-numeric header is Corruption.
struct WalBatch {
  std::string frames;
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;      // 0 = empty batch
  uint64_t durable_lsn = 0;   // leader's fsynced horizon at response time
  uint64_t epoch = 0;         // leader's latest published epoch (0 = none)
  uint64_t epoch_records = 0; // records covered by that epoch
};

HttpResponse EncodeWalBatch(WalBatch batch);
StatusOr<WalBatch> DecodeWalBatch(ClientResponse response);

/// Typed HTTP client for the leader's /repl endpoints. Maps protocol
/// signals onto Status codes the state machine dispatches on:
///   410 Gone            -> NotFound     (artifact superseded: re-fetch the
///                                        manifest / re-bootstrap)
///   other HTTP >= 400   -> Unavailable  (leader up but not serving this;
///                                        retry with backoff)
///   transport faults    -> IoError      (as reported by HttpClient —
///                                        includes timeouts and torn
///                                        responses; reconnect + backoff)
///   malformed answer    -> Corruption   (handled like a transport fault)
/// A torn or CRC-damaged body is never partially surfaced: the caller
/// re-requests everything after its last applied LSN.
class ReplicationClient {
 public:
  ReplicationClient(std::string host, uint16_t port, double timeout_s);

  StatusOr<LeaderManifest> FetchManifest();
  StatusOr<std::string> FetchCheckpoint(uint64_t lsn);
  /// Asks for at most 1 MiB of frames per call.
  StatusOr<WalBatch> FetchWal(uint64_t from_lsn, uint64_t max_lsn);

  /// Drops the connection so the next fetch reconnects from scratch.
  void Disconnect() { client_.Close(); }

  uint64_t bytes_total() const {
    return bytes_total_.load(std::memory_order_relaxed);
  }

 private:
  StatusOr<ClientResponse> Fetch(const std::string& target);

  const std::string host_;
  const uint16_t port_;
  const double timeout_s_;
  HttpClient client_;
  std::atomic<uint64_t> bytes_total_{0};
};

struct FollowerOptions {
  std::string leader_host = "127.0.0.1";
  uint16_t leader_port = 0;
  /// A follower whose last caught-up confirmation is older than this is
  /// stale: its releases may lag the leader arbitrarily. /healthz degrades
  /// off fresh(), and reads optionally get rejected (reject_stale_reads).
  uint64_t max_staleness_ms = 5000;
  /// With stale reads rejected, /release answers 503 past the staleness
  /// bound instead of serving with a degraded-health header.
  bool reject_stale_reads = false;
  double request_timeout_s = 5.0;
  /// Idle poll cadence while caught up.
  uint64_t poll_interval_ms = 50;
  /// Reconnect backoff: initial, doubling per consecutive failure, capped,
  /// with up to 25% multiplicative jitter (decorrelates a replica fleet
  /// re-connecting after a leader restart).
  uint64_t backoff_initial_ms = 100;
  uint64_t backoff_max_ms = 5000;
  uint64_t jitter_seed = 0;  // 0 = seed from the clock
  /// DP serving: the follower keeps its own budget ledger, but its
  /// releases are byte-identical to the leader's at the same publication
  /// point and epsilon — provided the operator gave both the same
  /// noise-key secret. An empty secret means a random per-process key:
  /// still DP, not leader-identical.
  DpServingOptions dp;
};

/// A read replica of a 1-shard leader: an IncrementalAnonymizer fed by
/// checkpoint adoption and in-order WAL application, publishing snapshots
/// at the *leader's* epochs so a caught-up follower's /release body is
/// byte-identical to the leader's. Each bootstrap builds a fresh anonymizer
/// shaped only by the leader's manifest (base_k, leaf capacity, fanout,
/// DP grid height), so no local flag can diverge the trees.
///
/// One background thread does it all and never exits on error: leader down
/// means capped-backoff reconnects, a GC'd WAL range means bootstrapping
/// again, a torn or malformed answer means re-requesting from the last
/// applied LSN, and a sharded leader is refused (nothing published).
/// Serving threads read the const accessors and CurrentStitched().
class ReplicatedFollower {
 public:
  ReplicatedFollower(Domain domain, FollowerOptions options);
  ~ReplicatedFollower();

  ReplicatedFollower(const ReplicatedFollower&) = delete;
  ReplicatedFollower& operator=(const ReplicatedFollower&) = delete;

  /// Starts the replication thread. Returns immediately; bootstrap and
  /// catch-up happen in the background (watch state() / healthz).
  void Start();
  void Stop();

  ReplState state() const {
    return static_cast<ReplState>(state_.load(std::memory_order_acquire));
  }
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  /// Last published (leader) epoch; 0 = nothing published yet. May move
  /// backward across a leader restart (see PublishEpoch).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t records() const { return records_.load(std::memory_order_acquire); }
  /// Record count of the last published snapshot (0 = nothing published).
  uint64_t published_records() const {
    return published_records_.load(std::memory_order_acquire);
  }
  uint64_t bootstraps() const {
    return bootstraps_.load(std::memory_order_relaxed);
  }
  /// Milliseconds since the last caught-up confirmation; infinite before
  /// the first one (stale until proven fresh).
  double staleness_ms() const;
  bool fresh() const {
    return staleness_ms() <= static_cast<double>(options_.max_staleness_ms);
  }
  /// The current release point as a 1-shard stitched snapshot, the shape
  /// RenderRelease consumes. Null until the first publication.
  std::shared_ptr<const StitchedSnapshot> CurrentStitched() const;

  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_total() const { return client_.bytes_total(); }
  /// Leader's durable LSN / epoch as of the last successful poll.
  uint64_t leader_durable_lsn() const {
    return leader_durable_lsn_.load(std::memory_order_relaxed);
  }
  uint64_t leader_epoch() const {
    return leader_epoch_.load(std::memory_order_relaxed);
  }
  /// LSNs known durable on the leader but not yet applied here.
  uint64_t lag_lsn() const {
    const uint64_t durable = leader_durable_lsn();
    const uint64_t applied = applied_lsn();
    return durable > applied ? durable - applied : 0;
  }

  const FollowerOptions& options() const { return options_; }

 private:
  enum class TailResult {
    kImmediate,  // a batch was applied; poll again right away
    kIdle,       // caught up; idle-wait one poll interval
    kFault,      // transport/decode fault; backoff before retrying
  };

  void RunLoop();
  /// One bootstrap attempt; false on a retryable failure (backoff applied
  /// by the caller).
  bool BootstrapOnce();
  /// One tail poll against the leader's /repl/wal.
  TailResult TailOnce();
  /// Applies one WAL entry; `lsn` must be exactly applied_lsn() + 1.
  Status Apply(uint64_t lsn, std::span<const double> point,
               int32_t sensitive);
  /// Publishes the index as leader epoch `epoch`; false when it holds fewer
  /// than base_k records or (epoch, records) is already published.
  bool PublishEpoch(uint64_t epoch);
  void MarkCaughtUp();  // resets the staleness clock
  void OnTransportFault();
  /// Sleeps the capped-exponential-backoff delay (interruptible by Stop).
  void Backoff();
  bool SleepFor(uint64_t ms);  // false when Stop interrupted the wait
  void SetState(ReplState state) {
    state_.store(static_cast<int>(state), std::memory_order_release);
  }

  const FollowerOptions options_;
  const Domain domain_;
  ReplicationClient client_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;

  std::atomic<int> state_{static_cast<int>(ReplState::kBootstrapping)};
  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> records_{0};  // == anonymizer_->size()
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> published_records_{0};
  std::atomic<uint64_t> bootstraps_{0};
  /// steady_clock nanos of the last MarkCaughtUp; 0 = never.
  std::atomic<int64_t> caught_up_ns_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> leader_durable_lsn_{0};
  std::atomic<uint64_t> leader_epoch_{0};
  std::atomic<uint64_t> leader_epoch_records_{0};

  mutable std::mutex current_mu_;
  std::shared_ptr<const StitchedSnapshot> current_;

  // Replication-thread-only state (no synchronization needed).
  std::unique_ptr<IncrementalAnonymizer> anonymizer_;  // null until bootstrap
  // DP cell counts of the tree, at the manifest's height (like the tree
  // shape); null until bootstrap.
  std::unique_ptr<DpCellCounter> dp_cells_;
  bool bootstrapped_ = false;
  uint64_t consecutive_failures_ = 0;
  uint64_t jitter_state_ = 0;
};

/// The HTTP face of a follower: read endpoints served lock-free off the
/// follower's published snapshot, writes redirected to the leader, health and
/// metrics wired to the replication state machine. The paths form one
/// Router table, so 404, 405 + Allow, HEAD and the kanon_http_* series
/// behave exactly as on the leader.
///
///   GET  /release, /release/query   RenderRelease off the follower's
///         snapshot — byte-identical to the leader's at the same epoch —
///         plus X-Kanon-Staleness-Ms (ms since last caught up;
///         -1 = never). Past --max-staleness-ms: either served anyway
///         (default) or 503 with --stale-reads=reject.
///   GET  /release/dp, /release/dp/query   DP reads off the same snapshot
///         via the shared DpServing: at a leader publication point the
///         body is byte-identical to the leader's for the same epsilon
///         when both share one noise-key secret. Budget-ledgered locally,
///         staleness-gated like the other reads.
///   POST /ingest   421 Misdirected Request + Location on the leader: a
///         replica never takes writes.
///   GET  /healthz  200 only while following within the staleness bound;
///         503 (with Retry-After) while bootstrapping, lagging or
///         disconnected.
///   GET  /metrics  kanon_repl_* series: one-hot state, lag in LSNs and
///         ms, reconnect/bootstrap/batch/byte counters, applied LSN and
///         published epoch; the DP ledger series; and the Router's build
///         info, listener counters and per-endpoint request series.
class FollowerFrontend {
 public:
  explicit FollowerFrontend(ReplicatedFollower* follower);

  HttpResponse Handle(const HttpRequest& request) {
    return router_.Handle(request);
  }

  /// See Router::SetServerStats.
  void SetServerStats(std::function<HttpServerStats()> fn) {
    router_.SetServerStats(std::move(fn));
  }

 private:
  /// A read answered off one snapshot (nullptr = nothing published yet).
  using SnapshotRead = std::function<HttpResponse(const StitchedSnapshot*,
                                                  const HttpRequest&)>;

  std::vector<Route> MakeRoutes();
  /// Wraps `read` in the staleness policy: rejected past the bound when
  /// configured so, and stamped with X-Kanon-Staleness-Ms either way.
  HttpHandler StalenessGated(SnapshotRead read);
  HttpResponse HandleHealthz();
  HttpResponse HandleMetrics();

  ReplicatedFollower* const follower_;
  DpServing dp_;
  Router router_;
};

}  // namespace kanon::net

#endif  // KANON_NET_REPLICATION_H_
