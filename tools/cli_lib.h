#ifndef KANON_TOOLS_CLI_LIB_H_
#define KANON_TOOLS_CLI_LIB_H_

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kanon::cli {

/// Parsed command-line options of kanon_cli (see tools/kanon_cli.cc for
/// the flag reference). Split out of main() so the full pipeline is unit
/// testable.
struct CliOptions {
  std::string input;
  std::string output;
  std::string schema_path;
  size_t k = 10;
  size_t columns = 0;  // 0 = infer from the first row
  bool skip_header = false;
  std::string algorithm = "rtree";
  size_t ldiversity = 0;
  double entropy_l = 0.0;
  double recursive_c = 0.0;
  size_t recursive_l = 0;
  double alpha = 0.0;
  bool uncompacted = false;
  std::vector<size_t> bias;
  bool metrics = false;
  /// --threads N (rtree only): build the index with the parallel sorted
  /// bulk-load backend on N threads. 0 keeps the default buffer-tree
  /// backend; 1 runs the sorted backend serially. Any N produces the
  /// same partitions (the pipeline is deterministic).
  size_t threads = 0;
};

/// Parses argv into options. Returns false on malformed or missing
/// required flags (the caller prints usage).
bool ParseArgs(int argc, const char* const* argv, CliOptions* options);

/// Number of quasi-identifier columns implied by the file's first row
/// (fields minus one for the sensitive column when there are >= 2 fields).
/// Errors with IoError when the file cannot be opened and InvalidArgument
/// when it is empty — so a bad --input fails with a message naming the
/// file instead of a confusing downstream parse error.
StatusOr<size_t> InferColumns(const std::string& path);

/// Runs the anonymization pipeline; diagnostics go to `log`. Returns the
/// process exit code.
int Run(const CliOptions& options, std::ostream& log = std::cerr);

/// Options of the `kanon_cli serve` subcommand: stream a CSV through the
/// concurrent AnonymizationService and/or front it with the HTTP server
/// (src/net/), and report serving statistics. At least one record source
/// is required: --input, or --listen with --domain (records arrive over
/// HTTP).
struct ServeOptions {
  std::string input;
  std::string schema_path;
  size_t k = 10;
  size_t columns = 0;  // 0 = infer from the first row
  bool skip_header = false;
  size_t producers = 2;     // concurrent client threads
  double rate = 0.0;        // target records/sec across producers (0 = max)
  size_t queue_capacity = 4096;
  size_t max_batch = 256;
  uint64_t snapshot_every = 10000;
  bool reject = false;      // kReject backpressure instead of blocking
  std::vector<size_t> releases;  // extra k1 granularities to report

  // Durability (off unless --wal-dir is given). On restart with the same
  // --wal-dir, the service recovers the checkpoint + WAL tail before
  // ingesting.
  std::string wal_dir;
  size_t fsync_every = 256;
  uint64_t checkpoint_every = 100000;
  bool recover_only = false;  // recover + report, ingest nothing

  // HTTP front-end (off unless --listen is given). --listen HOST:PORT
  // (":PORT" and bare "PORT" default the host to 127.0.0.1; port 0 binds
  // an ephemeral port, printed as "listening on HOST:PORT"). The server
  // runs until SIGTERM/SIGINT, then drains: in-flight requests finish,
  // the WAL flushes and a final snapshot publishes before exit.
  std::string listen;
  size_t http_threads = 4;
  size_t max_body_bytes = 8u << 20;
  /// Quasi-identifier domain for HTTP-only serving (no --input to infer it
  /// from): "lo:hi,lo:hi,..." — its length is the record dimensionality.
  std::vector<std::pair<double, double>> domain;
  /// Stop serving after this many seconds even without a signal
  /// (0 = until signaled). Primarily for scripted smoke tests.
  double serve_seconds = 0.0;

  // Sharding (--shards N, --shard-by hash|range). Each shard is a full
  // service with its own ingest thread and wal-dir/shard-<i>/ durability
  // directory; releases stitch the per-shard snapshots. A durable
  // directory remembers its layout: reopening with a different --shards
  // or --shard-by is rejected.
  size_t shards = 1;
  std::string shard_by = "hash";

  // Read replica (--follow LEADER[:PORT], e.g. "127.0.0.1:8080" or
  // "http://127.0.0.1:8080"). The process becomes a follower: it
  // bootstraps from the leader's checkpoint, tails its WAL, and serves
  // /release, /healthz and /metrics from its own snapshots while
  // redirecting POST /ingest to the leader (421). Requires --listen and
  // --domain; mutually exclusive with --input, --wal-dir and --shards > 1
  // (the follower refuses local write paths).
  std::string follow;
  /// Staleness bound: when the follower has not confirmed being caught up
  /// with the leader for this long, /healthz degrades to 503 (and
  /// /release too with --stale-reads=reject).
  uint64_t max_staleness_ms = 5000;
  /// "serve" (default): stale reads are answered, flagged via the
  /// X-Kanon-Staleness-Ms header and a degraded /healthz. "reject":
  /// stale /release requests get 503.
  std::string stale_reads = "serve";
  /// Idle poll cadence against the leader's /repl/wal.
  uint64_t repl_poll_ms = 50;

  // Differentially private releases (--dp-height / --dp-budget /
  // --dp-lifetime-budget / --dp-key / --dp-metrics-utility). dp_height
  // sets the publication-time DP grid height (0 disables DP cell
  // accounting and the /release/dp endpoints answer 409); dp_budget is
  // the total epsilon spendable per release point over HTTP (<= 0 =
  // unlimited); dp_lifetime_budget caps the spend across all release
  // points (<= 0 = unlimited) — the guard against unbounded per-record
  // composition over many epochs; dp_key is the server-held secret the
  // noise key derives from (empty = random per-process key) — give every
  // server of one deployment the same secret to make DP releases
  // byte-identical across them; dp_metrics_utility opts in to the
  // truth-derived utility pair in /metrics (trusted scrape plane only).
  size_t dp_height = 10;
  double dp_budget = 4.0;
  double dp_lifetime_budget = 0.0;
  std::string dp_key;
  bool dp_metrics_utility = false;
};

/// Parses "HOST:PORT", ":PORT" or "PORT" (host defaults to 127.0.0.1).
bool ParseListenAddress(const std::string& spec, std::string* host,
                        uint16_t* port);

/// Parses the argv *after* the `serve` token. Returns false on malformed
/// or missing required flags.
bool ParseServeArgs(int argc, const char* const* argv, ServeOptions* options);

/// Streams the input through an AnonymizationService with the configured
/// producer count and target rate, then prints ServiceStats and the final
/// snapshot's releases. Returns the process exit code.
int RunServe(const ServeOptions& options, std::ostream& log = std::cerr);

}  // namespace kanon::cli

#endif  // KANON_TOOLS_CLI_LIB_H_
