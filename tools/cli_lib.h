#ifndef KANON_TOOLS_CLI_LIB_H_
#define KANON_TOOLS_CLI_LIB_H_

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "net/anon_http.h"
#include "net/http_server.h"
#include "net/replication.h"
#include "shard/sharded_service.h"

namespace kanon::cli {

/// `--k` when not given, in both subcommands (the library's base_k
/// default is smaller).
inline constexpr size_t kDefaultK = 10;

/// Parsed command-line options of kanon_cli (CliFlags lists the flags).
/// Split out of main() so the full pipeline is unit testable.
struct CliOptions {
  std::string input;
  std::string output;
  std::string schema_path;
  size_t k = kDefaultK;
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
};

/// Parses argv into options. Returns false on an unknown flag, a missing
/// or malformed value, or missing required flags (the caller prints
/// usage).
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

/// Options of the `kanon_cli serve` subcommand: a leader fronts the
/// concurrent sharded service with the HTTP server (src/net/), where
/// records arrive by POST /ingest (--listen), or replays its WAL directory
/// and reports what it recovered (--recover-only); a follower serves a
/// read replica of a leader (--follow). Flags that tune a library
/// component write straight into that component's options below; the rest
/// are the CLI's own.
struct ServeOptions {
  ServeOptions() { service.service.anonymizer.base_k = kDefaultK; }

  std::vector<size_t> releases;  // extra k1 granularities to report
  bool recover_only = false;  // recover + report, ingest nothing
  /// Quasi-identifier domain of every role; its dim() is the record
  /// dimensionality. Split normalization and the DP grid derive from it,
  /// so a leader's serving run and its recovery must pass the same one.
  Domain domain;
  /// Stop serving after this many seconds even without a signal
  /// (0 = until signaled). Primarily for scripted smoke tests.
  double serve_seconds = 0.0;
  /// --listen was given: serve HTTP on http.host:http.port until
  /// SIGTERM/SIGINT, then drain (in-flight requests finish, the WAL
  /// flushes, a final snapshot publishes).
  bool listen = false;
  /// --follow was given: run as a read replica of
  /// follower.leader_host:leader_port instead of a leader.
  bool follow = false;

  /// --k, --queue, --batch, --snapshot-every, --reject, --wal-dir,
  /// --fsync-every, --checkpoint-every, --dp-height, --shards, --shard-by.
  ShardedServiceOptions service;
  /// --dp-budget, --dp-lifetime-budget, --dp-key, --dp-metrics-utility
  /// (for either role).
  net::DpServingOptions dp;
  /// --follow, --max-staleness-ms, --stale-reads, --repl-poll-ms.
  net::FollowerOptions follower;
  /// --listen, --http-threads, --max-body-bytes.
  net::HttpServerOptions http;
};

/// Parses "HOST:PORT", ":PORT" or "PORT" (host defaults to 127.0.0.1).
bool ParseListenAddress(const std::string& spec, std::string* host,
                        uint16_t* port);

/// Parses the argv *after* the `serve` token. Returns false on an unknown
/// flag, a missing or malformed value, or missing required flags.
bool ParseServeArgs(int argc, const char* const* argv, ServeOptions* options);

/// Recovers the sharded service from --wal-dir (when given), serves it
/// over HTTP until a signal or --serve-seconds (unless --recover-only), or
/// follows a leader with --follow; then prints the serving statistics and
/// the final snapshot's releases. Returns the process exit code.
int RunServe(const ServeOptions& options, std::ostream& log = std::cerr);

/// One row of a subcommand's flag table: `--name VALUE`, or the switch
/// `--name` when `value` is empty. An underscore in a flag given on the
/// command line reads as a hyphen. `set` parses the value strictly into
/// the options the table was bound to, and returns false when it is
/// malformed or out of the row's bounds (a switch ignores its argument).
struct Flag {
  std::string_view name;   // without the leading "--"
  std::string_view value;  // usage placeholder; empty for a switch
  std::function<bool(std::string_view)> set;
};

/// The flag tables of the two subcommands, bound to `options`: ParseArgs
/// and ParseServeArgs run them, and kanon_cli prints them as its usage.
std::vector<Flag> CliFlags(CliOptions* options);
std::vector<Flag> ServeFlags(ServeOptions* options);

}  // namespace kanon::cli

#endif  // KANON_TOOLS_CLI_LIB_H_
