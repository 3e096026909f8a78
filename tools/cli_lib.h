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
  /// --threads N (rtree only): build the index with the in-memory
  /// top-down bulk-load backend on N threads (at most max_fanout of them
  /// do work). 0 keeps the default buffer-tree backend; 1 runs the
  /// top-down backend serially. Any N produces the same partitions (the
  /// build is deterministic).
  size_t threads = 0;
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

/// Options of the `kanon_cli serve` subcommand: stream a CSV through the
/// concurrent sharded service and/or front it with the HTTP server
/// (src/net/), or follow a leader as a read replica. At least one record
/// source is required: --input, or --listen with --domain (records arrive
/// over HTTP). Flags that tune a library component write straight into
/// that component's options below; the rest are the CLI's own.
struct ServeOptions {
  ServeOptions() { service.service.anonymizer.base_k = kDefaultK; }

  std::string input;
  std::string schema_path;
  size_t columns = 0;  // 0 = infer from the first row
  bool skip_header = false;
  size_t producers = 2;     // concurrent client threads
  double rate = 0.0;        // target records/sec across producers (0 = max)
  std::vector<size_t> releases;  // extra k1 granularities to report
  bool recover_only = false;  // recover + report, ingest nothing
  /// Quasi-identifier domain for HTTP-only serving and followers (no
  /// --input to infer it from); its dim() is the record dimensionality.
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

/// Streams the input through the sharded service with the configured
/// producer count and target rate (or follows a leader with --follow),
/// then prints the serving statistics and the final snapshot's releases.
/// Returns the process exit code.
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
