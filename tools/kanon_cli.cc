// kanon_cli — anonymize a numeric CSV from the command line, or serve a
// stream of records (`kanon_cli serve`). Run it without arguments for the
// flag synopsis, which is printed from the same tables that parse the flags
// (tools/cli_lib.cc). Every value is parsed strictly: a malformed or
// out-of-range value is a usage error (exit 2), never another value.
//
// --threads N (rtree only) selects the in-memory top-down bulk-load
// backend on N threads. The build is deterministic: every thread count
// yields the same partitions.
//
// Serve mode streams the CSV through the concurrent incremental
// anonymization service (src/service/) and reports serving statistics.
//
// With --wal-dir the service write-ahead-logs every ingested record and
// periodically checkpoints the index (src/durability/); restarting with
// the same directory recovers the checkpoint plus the WAL tail before
// ingesting. --recover-only performs the recovery, prints what it
// restored, and exits without streaming the input.
//
// With --listen the serve mode also fronts the service with the epoll
// HTTP/1.1 server (src/net/): POST /ingest, GET /release[/query],
// GET /healthz, GET /metrics. Port 0 binds an ephemeral port; the actual
// address is printed as "listening on HOST:PORT". Without --input the
// record dimensionality and domain come from --domain (one LO:HI range
// per quasi-identifier). The server runs until SIGTERM/SIGINT (or
// --serve-seconds), then drains gracefully: in-flight requests finish,
// the WAL flushes, and a final snapshot publishes before exit.
//
// With --follow LEADER:PORT the process is a read replica instead: it
// bootstraps from the leader's checkpoint (GET /repl/checkpoint/<lsn>),
// tails its WAL (GET /repl/wal), and serves /release, /healthz and
// /metrics from its own epoch snapshots — byte-identical to the leader's
// at the same epoch. POST /ingest answers 421 with a Location on the
// leader. --max-staleness-ms bounds how stale the replica may get before
// /healthz degrades; --stale-reads reject turns stale /release into 503.
// Requires --listen and --domain (which must match the leader's
// dimensionality); the tree shape is taken only from the leader's
// manifest, not local flags (--k does nothing here), and a sharded leader
// is refused.
//
// Every serving role also exposes differentially private releases:
// GET /release/dp?epsilon= serves noisy consistent hierarchical counts
// over a data-independent grid (--dp-height levels), and
// /release/dp/query answers range counts from them. The noise comes from
// a server-held secret key — never from a client-suppliable seed —
// derived from --dp-key (empty = random per process); give every server
// of one deployment the same secret and they serve byte-identical DP
// bodies over the same records. --dp-budget caps the epsilon spendable
// per release point (served 429 past it), --dp-lifetime-budget caps it
// across all release points, and --dp-metrics-utility opts the
// truth-derived utility pair into /metrics (trusted scrape planes only).
// --dp-height 0 disables DP cell accounting entirely (the endpoints then
// answer 409).
//
// The input's quasi-identifier fields are parsed as numbers (categoricals
// numerically recoded upstream); an optional final integer column is the
// sensitive attribute. With --schema (see data/schema_spec.h) attributes
// get names, types and generalization hierarchies, which compaction and
// the certainty metric then honor. The output CSV holds one "lo..hi" cell
// per quasi-identifier plus the sensitive code.
//
// The pipeline lives in tools/cli_lib.{h,cc} (unit tested); this file is
// the thin executable wrapper.

#include <iostream>
#include <string>
#include <vector>

#include "cli_lib.h"

namespace {

/// Prints `line` (the synopsis lead) followed by every row of `flags` as
/// "[--name VALUE]", wrapped at 79 columns.
void PrintSynopsis(std::string line,
                   const std::vector<kanon::cli::Flag>& flags) {
  for (const kanon::cli::Flag& flag : flags) {
    std::string item = "[--" + std::string(flag.name);
    if (!flag.value.empty()) item += " " + std::string(flag.value);
    item += "]";
    if (line.size() + 1 + item.size() > 79) {
      std::cerr << line << "\n";
      line = std::string(16, ' ');
    }
    line += " " + item;
  }
  std::cerr << line << "\n";
}

void Usage() {
  kanon::cli::CliOptions cli;
  PrintSynopsis("usage: kanon_cli", kanon::cli::CliFlags(&cli));
  kanon::cli::ServeOptions serve;
  PrintSynopsis("   or: kanon_cli serve", kanon::cli::ServeFlags(&serve));
  std::cerr <<
      "(without serve, --input and --output are required; an underscore in\n"
      " a flag name reads as a hyphen; a malformed value is a usage error)\n"
      "(--input is optional when --listen and --domain are both given:\n"
      " records then arrive over HTTP; --follow makes the process a read\n"
      " replica of LEADER and requires --listen and --domain)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "serve") {
    kanon::cli::ServeOptions options;
    if (!kanon::cli::ParseServeArgs(argc - 1, argv + 1, &options)) {
      Usage();
      return 2;
    }
    return kanon::cli::RunServe(options);
  }
  kanon::cli::CliOptions options;
  if (!kanon::cli::ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  return kanon::cli::Run(options);
}
