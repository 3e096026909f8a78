#include "cli_lib.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "common/env.h"
#include "common/thread.h"
#include "kanon/kanon.h"
#include "net/anon_http.h"
#include "net/http_server.h"
#include "net/replication.h"

namespace kanon::cli {

namespace {

/// Set by the SIGTERM/SIGINT handler; RunServe polls it while the HTTP
/// server is up and starts the graceful drain when it flips.
std::atomic<int> g_signal{0};

void OnSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

void InstallDrainSignalHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Builds the schema (from a spec file, an explicit column count, or the
/// input's first row) and reads the CSV. Shared by Run and RunServe.
StatusOr<Dataset> LoadInput(const std::string& input,
                            const std::string& schema_path, size_t columns,
                            bool skip_header, std::ostream& log) {
  Schema schema;
  if (!schema_path.empty()) {
    KANON_ASSIGN_OR_RETURN(schema, LoadSchemaSpec(schema_path));
    log << "schema: " << schema.dim() << " attributes\n";
  } else {
    if (columns == 0) {
      KANON_ASSIGN_OR_RETURN(columns, InferColumns(input));
      log << "inferred " << columns << " quasi-identifier columns\n";
    }
    schema = Schema::Numeric(columns);
  }
  CsvOptions csv;
  csv.skip_header = skip_header;
  return ReadNumericCsv(input, schema, csv);
}

}  // namespace

bool ParseArgs(int argc, const char* const* argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      options->input = v;
    } else if (arg == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      options->output = v;
    } else if (arg == "--k") {
      const char* v = next();
      if (v == nullptr) return false;
      options->k = std::strtoul(v, nullptr, 10);
    } else if (arg == "--columns") {
      const char* v = next();
      if (v == nullptr) return false;
      options->columns = std::strtoul(v, nullptr, 10);
    } else if (arg == "--skip-header") {
      options->skip_header = true;
    } else if (arg == "--algorithm") {
      const char* v = next();
      if (v == nullptr) return false;
      options->algorithm = v;
    } else if (arg == "--schema") {
      const char* v = next();
      if (v == nullptr) return false;
      options->schema_path = v;
    } else if (arg == "--ldiversity") {
      const char* v = next();
      if (v == nullptr) return false;
      options->ldiversity = std::strtoul(v, nullptr, 10);
    } else if (arg == "--entropy") {
      const char* v = next();
      if (v == nullptr) return false;
      options->entropy_l = std::strtod(v, nullptr);
    } else if (arg == "--recursive") {
      const char* v = next();
      if (v == nullptr) return false;
      const auto parts = SplitCsvLine(v, ',');
      if (parts.size() != 2) return false;
      options->recursive_c = std::strtod(parts[0].c_str(), nullptr);
      options->recursive_l = std::strtoul(parts[1].c_str(), nullptr, 10);
    } else if (arg == "--alpha") {
      const char* v = next();
      if (v == nullptr) return false;
      options->alpha = std::strtod(v, nullptr);
    } else if (arg == "--uncompacted") {
      options->uncompacted = true;
    } else if (arg == "--bias") {
      const char* v = next();
      if (v == nullptr) return false;
      for (const std::string& field : SplitCsvLine(v, ',')) {
        options->bias.push_back(std::strtoul(field.c_str(), nullptr, 10));
      }
    } else if (arg == "--metrics") {
      options->metrics = true;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      options->threads = std::strtoul(v, nullptr, 10);
      if (options->threads == 0) return false;
    } else {
      return false;
    }
  }
  return !options->input.empty() && !options->output.empty() &&
         options->k >= 1;
}

StatusOr<size_t> InferColumns(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open input file " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("input file " + path +
                                   " is empty; nothing to anonymize");
  }
  const size_t fields = SplitCsvLine(line, ',').size();
  // Treat the final column as the sensitive attribute when there are at
  // least two columns.
  return fields >= 2 ? fields - 1 : fields;
}

int Run(const CliOptions& options, std::ostream& log) {
  auto dataset = LoadInput(options.input, options.schema_path,
                           options.columns, options.skip_header, log);
  if (!dataset.ok()) {
    log << dataset.status() << "\n";
    return 1;
  }
  log << "read " << dataset->num_records() << " records\n";
  if (dataset->empty()) return 1;

  std::unique_ptr<PartitionConstraint> constraint;
  if (options.ldiversity > 0) {
    constraint = std::make_unique<DistinctLDiversity>(options.k,
                                                      options.ldiversity);
  } else if (options.entropy_l > 0.0) {
    constraint =
        std::make_unique<EntropyLDiversity>(options.k, options.entropy_l);
  } else if (options.recursive_c > 0.0 && options.recursive_l > 0) {
    constraint = std::make_unique<RecursiveCLDiversity>(
        options.k, options.recursive_c, options.recursive_l);
  } else if (options.alpha > 0.0) {
    constraint = std::make_unique<AlphaKAnonymity>(options.alpha, options.k);
  }
  if (constraint != nullptr) {
    log << "constraint: " << constraint->Name() << "\n";
  }

  PartitionSet partitions;
  if (options.algorithm == "rtree") {
    RTreeAnonymizerOptions ro;
    ro.base_k = options.k;
    ro.constraint = constraint.get();
    ro.compact = !options.uncompacted;
    ro.split.biased_axes = options.bias;
    if (options.threads > 0) {
      ro.backend = RTreeAnonymizerOptions::Backend::kSortedBulkLoad;
      ro.threads = options.threads;
      log << "sorted bulk load on " << options.threads << " thread"
          << (options.threads == 1 ? "" : "s") << "\n";
    }
    auto ps = RTreeAnonymizer(ro).Anonymize(*dataset, options.k);
    if (!ps.ok()) {
      log << ps.status() << "\n";
      return 1;
    }
    partitions = *std::move(ps);
  } else if (options.algorithm == "mondrian") {
    MondrianConfig mc;
    mc.constraint = constraint.get();
    partitions = Mondrian(mc).Anonymize(*dataset, options.k);
    if (!options.uncompacted) CompactPartitions(*dataset, &partitions);
  } else if (options.algorithm == "grid") {
    GridAnonymizerOptions go;
    go.compact = !options.uncompacted;
    auto ps = GridAnonymizer(go).Anonymize(*dataset, options.k);
    if (!ps.ok()) {
      log << ps.status() << "\n";
      return 1;
    }
    partitions = *std::move(ps);
  } else {
    log << "unknown algorithm " << options.algorithm << "\n";
    return 1;
  }

  if (auto s = partitions.CheckCovers(*dataset); !s.ok()) {
    log << "internal error, refusing to publish: " << s << "\n";
    return 1;
  }
  if (auto s = partitions.CheckKAnonymous(
          std::min<size_t>(options.k, dataset->num_records()));
      !s.ok()) {
    log << "internal error, refusing to publish: " << s << "\n";
    return 1;
  }

  if (options.metrics) {
    log << FormatQuality(ComputeQuality(*dataset, partitions)) << "\n";
    const MarginalUtilityReport utility =
        ComputeMarginalUtility(*dataset, partitions);
    log << "marginal utility: meanTV=" << utility.mean_tv
        << " meanEMD=" << utility.mean_emd << "\n";
  }

  auto table = AnonymizedTable::FromPartitions(*dataset,
                                               std::move(partitions));
  if (!table.ok()) {
    log << table.status() << "\n";
    return 1;
  }
  if (auto s = table->WriteCsv(options.output, dataset->schema()); !s.ok()) {
    log << s << "\n";
    return 1;
  }
  log << "wrote " << table->num_records() << " generalized records ("
      << table->num_partitions() << " partitions) to " << options.output
      << "\n";
  return 0;
}

bool ParseListenAddress(const std::string& spec, std::string* host,
                        uint16_t* port) {
  if (spec.empty()) return false;
  std::string host_part = "127.0.0.1";
  std::string port_part = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (port_part.empty()) return false;
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_part.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value > 65535) return false;
  *host = host_part;
  *port = static_cast<uint16_t>(value);
  return true;
}

bool ParseServeArgs(int argc, const char* const* argv,
                    ServeOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      options->input = v;
    } else if (arg == "--schema") {
      const char* v = next();
      if (v == nullptr) return false;
      options->schema_path = v;
    } else if (arg == "--k") {
      const char* v = next();
      if (v == nullptr) return false;
      options->k = std::strtoul(v, nullptr, 10);
    } else if (arg == "--columns") {
      const char* v = next();
      if (v == nullptr) return false;
      options->columns = std::strtoul(v, nullptr, 10);
    } else if (arg == "--skip-header") {
      options->skip_header = true;
    } else if (arg == "--producers") {
      const char* v = next();
      if (v == nullptr) return false;
      options->producers = std::strtoul(v, nullptr, 10);
    } else if (arg == "--rate") {
      const char* v = next();
      if (v == nullptr) return false;
      options->rate = std::strtod(v, nullptr);
    } else if (arg == "--queue") {
      const char* v = next();
      if (v == nullptr) return false;
      options->queue_capacity = std::strtoul(v, nullptr, 10);
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr) return false;
      options->max_batch = std::strtoul(v, nullptr, 10);
    } else if (arg == "--snapshot-every") {
      const char* v = next();
      if (v == nullptr) return false;
      options->snapshot_every = std::strtoul(v, nullptr, 10);
    } else if (arg == "--reject") {
      options->reject = true;
    } else if (arg == "--wal-dir" || arg == "--wal_dir") {
      const char* v = next();
      if (v == nullptr) return false;
      options->wal_dir = v;
    } else if (arg == "--fsync-every" || arg == "--fsync_every") {
      const char* v = next();
      if (v == nullptr) return false;
      options->fsync_every = std::strtoul(v, nullptr, 10);
    } else if (arg == "--checkpoint-every" || arg == "--checkpoint_every") {
      const char* v = next();
      if (v == nullptr) return false;
      options->checkpoint_every = std::strtoul(v, nullptr, 10);
    } else if (arg == "--recover-only" || arg == "--recover_only") {
      options->recover_only = true;
    } else if (arg == "--release") {
      const char* v = next();
      if (v == nullptr) return false;
      for (const std::string& field : SplitCsvLine(v, ',')) {
        options->releases.push_back(std::strtoul(field.c_str(), nullptr, 10));
      }
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return false;
      options->listen = v;
      std::string host;
      uint16_t port = 0;
      if (!ParseListenAddress(options->listen, &host, &port)) return false;
    } else if (arg == "--http-threads" || arg == "--http_threads") {
      const char* v = next();
      if (v == nullptr) return false;
      options->http_threads = std::strtoul(v, nullptr, 10);
      if (options->http_threads == 0) return false;
    } else if (arg == "--max-body-bytes" || arg == "--max_body_bytes") {
      const char* v = next();
      if (v == nullptr) return false;
      options->max_body_bytes = std::strtoul(v, nullptr, 10);
      if (options->max_body_bytes == 0) return false;
    } else if (arg == "--domain") {
      const char* v = next();
      if (v == nullptr) return false;
      for (const std::string& field : SplitCsvLine(v, ',')) {
        const size_t colon = field.find(':');
        if (colon == std::string::npos) return false;
        const double lo = std::strtod(field.substr(0, colon).c_str(), nullptr);
        const double hi = std::strtod(field.substr(colon + 1).c_str(), nullptr);
        if (!(lo <= hi)) return false;
        options->domain.emplace_back(lo, hi);
      }
      if (options->domain.empty()) return false;
    } else if (arg == "--serve-seconds" || arg == "--serve_seconds") {
      const char* v = next();
      if (v == nullptr) return false;
      options->serve_seconds = std::strtod(v, nullptr);
      if (options->serve_seconds < 0.0) return false;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      options->shards = std::strtoul(v, nullptr, 10);
      if (options->shards == 0) return false;
    } else if (arg == "--shard-by" || arg == "--shard_by") {
      const char* v = next();
      if (v == nullptr) return false;
      options->shard_by = v;
      if (!ShardByFromName(options->shard_by).ok()) return false;
    } else if (arg == "--follow") {
      const char* v = next();
      if (v == nullptr) return false;
      options->follow = v;
    } else if (arg == "--max-staleness-ms" || arg == "--max_staleness_ms") {
      const char* v = next();
      if (v == nullptr) return false;
      options->max_staleness_ms = std::strtoull(v, nullptr, 10);
      if (options->max_staleness_ms == 0) return false;
    } else if (arg == "--stale-reads" || arg == "--stale_reads") {
      const char* v = next();
      if (v == nullptr) return false;
      options->stale_reads = v;
      if (options->stale_reads != "serve" &&
          options->stale_reads != "reject") {
        return false;
      }
    } else if (arg == "--repl-poll-ms" || arg == "--repl_poll_ms") {
      const char* v = next();
      if (v == nullptr) return false;
      options->repl_poll_ms = std::strtoull(v, nullptr, 10);
      if (options->repl_poll_ms == 0) return false;
    } else if (arg == "--dp-height" || arg == "--dp_height") {
      const char* v = next();
      if (v == nullptr) return false;
      char* end = nullptr;
      options->dp_height = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || options->dp_height >= 40) return false;
    } else if (arg == "--dp-budget" || arg == "--dp_budget") {
      const char* v = next();
      if (v == nullptr) return false;
      char* end = nullptr;
      options->dp_budget = std::strtod(v, &end);
      if (end == v || *end != '\0') return false;
    } else if (arg == "--dp-lifetime-budget" ||
               arg == "--dp_lifetime_budget") {
      const char* v = next();
      if (v == nullptr) return false;
      char* end = nullptr;
      options->dp_lifetime_budget = std::strtod(v, &end);
      if (end == v || *end != '\0') return false;
    } else if (arg == "--dp-key" || arg == "--dp_key") {
      const char* v = next();
      if (v == nullptr) return false;
      options->dp_key = v;
    } else if (arg == "--dp-metrics-utility" ||
               arg == "--dp_metrics_utility") {
      options->dp_metrics_utility = true;
    } else {
      return false;
    }
  }
  if (!options->follow.empty()) {
    // A follower's records arrive only via replication: local ingest and
    // durability paths are contradictions, not defaults to ignore.
    return !options->listen.empty() && !options->domain.empty() &&
           options->input.empty() && options->wal_dir.empty() &&
           options->shards == 1 && !options->recover_only;
  }
  // A record source is required: --input, or HTTP ingest (--listen plus
  // --domain, which supplies the dimensionality --input would have), or a
  // recover-only replay with --domain.
  const bool source_ok =
      !options->input.empty() ||
      (!options->domain.empty() &&
       (!options->listen.empty() || options->recover_only));
  return source_ok && options->k >= 1 && options->producers >= 1 &&
         options->queue_capacity >= 1 && options->max_batch >= 1 &&
         (!options->recover_only || !options->wal_dir.empty());
}

namespace {

/// The --dp-* flags as the DP serving half of either role takes them.
net::DpServingOptions DpOptions(const ServeOptions& options) {
  return {options.dp_budget, options.dp_lifetime_budget, options.dp_key,
          options.dp_metrics_utility};
}

/// `kanon_cli serve --follow`: run as a read replica. Mirrors RunServe's
/// operational surface (the "listening on" line, signal-driven drain,
/// --serve-seconds, the "final snapshot:" report) so the same harnesses
/// drive leaders and followers.
int RunFollower(const ServeOptions& options, std::ostream& log) {
  std::string leader = options.follow;
  if (leader.rfind("http://", 0) == 0) leader = leader.substr(7);
  if (!leader.empty() && leader.back() == '/') leader.pop_back();
  net::FollowerOptions fopts;
  if (!ParseListenAddress(leader, &fopts.leader_host, &fopts.leader_port) ||
      fopts.leader_port == 0) {
    log << "invalid --follow address: " << options.follow << "\n";
    return 1;
  }
  Domain domain;
  for (const auto& [lo, hi] : options.domain) {
    domain.lo.push_back(lo);
    domain.hi.push_back(hi);
  }
  fopts.max_staleness_ms = options.max_staleness_ms;
  fopts.reject_stale_reads = options.stale_reads == "reject";
  fopts.poll_interval_ms = options.repl_poll_ms;
  fopts.dp = DpOptions(options);
  fopts.scratch_dir =
      "/tmp/kanon-follower-" + std::to_string(::getpid());

  net::ReplicatedFollower follower(std::move(domain), fopts);
  net::FollowerFrontend frontend(&follower);

  net::HttpServerOptions http_options;
  uint16_t port = 0;
  if (!ParseListenAddress(options.listen, &http_options.host, &port)) {
    log << "invalid --listen address: " << options.listen << "\n";
    return 1;
  }
  http_options.port = port;
  http_options.num_threads = options.http_threads;
  http_options.parser.max_body_bytes = options.max_body_bytes;
  net::HttpServer server(http_options,
                         [&frontend](const net::HttpRequest& request) {
                           return frontend.Handle(request);
                         });
  frontend.SetServerStats([&server] { return server.stats(); });
  if (auto s = server.Start(); !s.ok()) {
    log << s << "\n";
    return 1;
  }
  g_signal.store(0, std::memory_order_relaxed);
  InstallDrainSignalHandlers();
  log << "listening on " << server.host() << ":" << server.bound_port()
      << " (epoll, " << options.http_threads << " threads, follower)\n";
  log << "following http://" << fopts.leader_host << ":"
      << fopts.leader_port << " max_staleness_ms="
      << options.max_staleness_ms << " stale_reads="
      << options.stale_reads << "\n";
  follower.Start();

  Timer serving;
  while (g_signal.load(std::memory_order_relaxed) == 0) {
    if (options.serve_seconds > 0.0 &&
        serving.ElapsedSeconds() >= options.serve_seconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int sig = g_signal.load(std::memory_order_relaxed);
  log << "draining ("
      << (sig != 0 ? (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                   : "--serve-seconds elapsed")
      << ")\n";
  server.Shutdown();
  follower.Stop();

  log << "repl: state=" << net::ReplStateName(follower.state())
      << " applied_lsn=" << follower.applied_lsn()
      << " epoch=" << follower.epoch()
      << " reconnects=" << follower.reconnects()
      << " bootstraps=" << follower.bootstraps()
      << " batches=" << follower.batches()
      << " bytes=" << follower.bytes_total() << "\n";
  const auto stitched = follower.CurrentStitched();
  if (stitched == nullptr) {
    log << "no snapshot published: the leader published nothing the "
           "follower could replicate\n";
    return 0;
  }
  const StitchedInfo& info = stitched->info();
  const PartitionSet base_release = stitched->Release(info.base_k);
  log << "final snapshot: epoch=" << info.epoch
      << " records=" << info.records
      << " partitions=" << base_release.num_partitions()
      << " min_partition=" << base_release.min_partition_size()
      << " max_partition=" << base_release.max_partition_size()
      << " avgNCP=" << AverageBoxNcp(base_release, stitched->domain())
      << "\n";
  return 0;
}

}  // namespace

int RunServe(const ServeOptions& options, std::ostream& log) {
  if (!options.follow.empty()) return RunFollower(options, log);
  // Two record sources: a CSV replayed by producer threads (--input) and
  // records POSTed over HTTP (--listen). HTTP-only serving has no file to
  // infer the dimensionality and domain from, so --domain supplies both.
  std::optional<Dataset> dataset;
  size_t dim = 0;
  Domain domain;
  if (!options.input.empty()) {
    auto loaded = LoadInput(options.input, options.schema_path,
                            options.columns, options.skip_header, log);
    if (!loaded.ok()) {
      log << loaded.status() << "\n";
      return 1;
    }
    dataset = *std::move(loaded);
    log << "read " << dataset->num_records() << " records\n";
    if (dataset->empty()) return 1;
    dim = dataset->dim();
    domain = dataset->ComputeDomain();
  } else {
    dim = options.domain.size();
    for (const auto& [lo, hi] : options.domain) {
      domain.lo.push_back(lo);
      domain.hi.push_back(hi);
    }
  }
  const size_t n = dataset ? dataset->num_records() : 0;

  ServiceOptions service_options;
  service_options.anonymizer.base_k = options.k;
  service_options.queue_capacity = options.queue_capacity;
  service_options.max_batch = options.max_batch;
  service_options.backpressure = options.reject ? BackpressureMode::kReject
                                                : BackpressureMode::kBlock;
  service_options.snapshot_every = options.snapshot_every;
  service_options.durability.wal_dir = options.wal_dir;
  service_options.durability.fsync_every = options.fsync_every;
  service_options.durability.checkpoint_every = options.checkpoint_every;
  service_options.dp_height = options.dp_height;

  // KANON_FAULT_SEED routes all durability I/O through a FaultInjectionEnv
  // — the operational fault drill. The same seed injects the same faults,
  // so a degraded run reported by CI reproduces locally from its seed.
  // KANON_FAULT_MEAN_OPS (default 2000) sets the fault rate and
  // KANON_FAULT_BREAK_AFTER (default 0 = never) makes the disk die
  // outright after that many operations.
  std::unique_ptr<FaultInjectionEnv> fault_env;
  const char* fault_seed = std::getenv("KANON_FAULT_SEED");
  if (fault_seed != nullptr && *fault_seed != '\0' &&
      !options.wal_dir.empty() && !options.recover_only) {
    FaultInjectionOptions fault_options;
    fault_options.seed = std::strtoull(fault_seed, nullptr, 10);
    fault_options.mean_ops_between_faults = 2000;
    if (const char* v = std::getenv("KANON_FAULT_MEAN_OPS")) {
      fault_options.mean_ops_between_faults =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    }
    if (const char* v = std::getenv("KANON_FAULT_BREAK_AFTER")) {
      fault_options.break_after_ops = std::strtoull(v, nullptr, 10);
    }
    fault_options.path_filter = options.wal_dir;
    fault_options.sync_faults = true;
    fault_env =
        std::make_unique<FaultInjectionEnv>(Env::Default(), fault_options);
    service_options.durability.env = fault_env.get();
    // Fast, bounded degradation under a dead disk: don't spend seconds
    // backing off when the schedule says every retry will fail too.
    service_options.durability.retry_backoff_ms = 1;
    service_options.durability.retry_backoff_max_ms = 8;
    log << "fault injection: seed=" << fault_options.seed
        << " mean_ops=" << fault_options.mean_ops_between_faults
        << " break_after=" << fault_options.break_after_ops << "\n";
  }
  ShardedServiceOptions sharded_options;
  sharded_options.service = service_options;
  sharded_options.sharding.num_shards = options.shards;
  if (auto by = ShardByFromName(options.shard_by); by.ok()) {
    sharded_options.sharding.shard_by = *by;
  } else {
    log << by.status() << "\n";
    return 1;
  }
  auto service_or =
      ShardedAnonymizationService::Create(dim, domain, sharded_options);
  if (!service_or.ok()) {
    log << service_or.status() << "\n";
    return 1;
  }
  ShardedAnonymizationService& service = **service_or;
  if (!options.wal_dir.empty()) {
    if (options.shards == 1) {
      // The single-shard line keeps the exact pre-sharding format — the
      // crash-recovery harness greps it.
      const RecoveryResult& r = service.shard_recovery(0);
      log << "recovery: recovered=" << r.recovered
          << " checkpoint_lsn=" << r.checkpoint_lsn
          << " replayed=" << r.replayed << " next_lsn=" << r.next_lsn
          << " torn_tail=" << (r.truncated_torn_tail ? 1 : 0) << "\n";
    } else {
      for (size_t i = 0; i < service.num_shards(); ++i) {
        const RecoveryResult& r = service.shard_recovery(i);
        log << "recovery shard=" << i << ": recovered=" << r.recovered
            << " checkpoint_lsn=" << r.checkpoint_lsn
            << " replayed=" << r.replayed << " next_lsn=" << r.next_lsn
            << " torn_tail=" << (r.truncated_torn_tail ? 1 : 0) << "\n";
      }
    }
  }

  // The HTTP front-end (when --listen is given) starts before the
  // producers so scripted clients can connect as soon as the "listening
  // on" line appears.
  std::unique_ptr<net::AnonHttpFrontend> frontend;
  std::unique_ptr<net::HttpServer> server;
  if (!options.listen.empty()) {
    net::HttpServerOptions http_options;
    uint16_t port = 0;
    if (!ParseListenAddress(options.listen, &http_options.host, &port)) {
      log << "invalid --listen address: " << options.listen << "\n";
      return 1;
    }
    http_options.port = port;
    http_options.num_threads = options.http_threads;
    http_options.parser.max_body_bytes = options.max_body_bytes;
    frontend =
        std::make_unique<net::AnonHttpFrontend>(&service, DpOptions(options));
    server = std::make_unique<net::HttpServer>(
        http_options, [f = frontend.get()](const net::HttpRequest& request) {
          return f->Handle(request);
        });
    frontend->SetServerStats([s = server.get()] { return s->stats(); });
    if (auto s = server->Start(); !s.ok()) {
      log << s << "\n";
      return 1;
    }
    g_signal.store(0, std::memory_order_relaxed);
    InstallDrainSignalHandlers();
    log << "listening on " << server->host() << ":" << server->bound_port()
        << " (epoll, " << options.http_threads << " threads, "
        << options.shards
        << " shard" << (options.shards == 1 ? "" : "s") << ")\n";
  }

  // Each producer streams a stripe of the file at its share of the target
  // rate, which interleaves into an approximately file-ordered stream.
  const size_t producers = options.producers;
  const double per_producer_rate =
      options.rate > 0.0 ? options.rate / static_cast<double>(producers)
                         : 0.0;
  Timer timer;
  if (!options.recover_only && dataset) {
    std::vector<JoinableThread> threads;
    for (size_t t = 0; t < producers; ++t) {
      threads.emplace_back([&, t] {
        using Clock = std::chrono::steady_clock;
        const auto start = Clock::now();
        size_t sent = 0;
        for (RecordId r = t; r < n; r += producers) {
          if (per_producer_rate > 0.0) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(sent) /
                                per_producer_rate)));
          }
          // In kReject mode drops are expected under burst; they are
          // counted by the service and reported below.
          (void)service.Ingest(dataset->row(r), dataset->sensitive(r));
          ++sent;
        }
      });
    }
  }  // joins the producers

  if (server != nullptr) {
    // Serve until SIGTERM/SIGINT (or --serve-seconds for scripted runs),
    // then drain: the server finishes in-flight requests — every 200 the
    // client saw is acknowledged — before the service flushes its WAL and
    // publishes the final snapshot. No acknowledged record is lost.
    Timer serving;
    while (g_signal.load(std::memory_order_relaxed) == 0) {
      if (options.serve_seconds > 0.0 &&
          serving.ElapsedSeconds() >= options.serve_seconds) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const int sig = g_signal.load(std::memory_order_relaxed);
    log << "draining ("
        << (sig != 0 ? (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                     : "--serve-seconds elapsed")
        << ")\n";
    server->Shutdown();
  }
  service.Stop();
  const double elapsed_s = timer.ElapsedSeconds();

  const ShardedServiceStats sharded_stats = service.Stats();
  const ServiceStats& stats = sharded_stats.total;
  log << FormatServiceStats(stats) << "\n";
  if (options.shards > 1) {
    for (size_t i = 0; i < sharded_stats.shards.size(); ++i) {
      const ServiceStats& s = sharded_stats.shards[i];
      log << "shard " << i << ": inserted=" << s.inserted
          << " snapshots=" << s.snapshots << " rejected=" << s.rejected
          << " health=" << ServiceHealthName(s.health) << "\n";
    }
  }
  if (server != nullptr) {
    const net::HttpServerStats hs = server->stats();
    log << "http: accepted_conns=" << hs.connections_accepted
        << " refused=" << hs.connections_refused
        << " requests=" << hs.requests << " responses=" << hs.responses
        << " parse_errors=" << hs.parse_errors
        << " timeouts=" << hs.timeouts
        << " http_accepted_records=" << frontend->accepted() << "\n";
  }
  if (fault_env != nullptr) {
    log << "fault injection: ops=" << fault_env->ops()
        << " injected=" << fault_env->injected()
        << (fault_env->broken() ? " broken=1" : "") << "\n";
    if (const std::string trace = fault_env->TraceSummary(); !trace.empty()) {
      log << trace << "\n";
    }
  }
  if (stats.health == ServiceHealth::kDegraded) {
    // Degradation is graceful by definition: the snapshot below is still
    // served and a restart recovers everything durable, so this run is
    // reported (health line above) but not failed.
    log << "service degraded to read-only: " << stats.degraded_reason
        << "\n";
  }
  if (!options.recover_only && dataset) {
    log << "streamed " << n << " records with " << producers
        << " producers in " << elapsed_s << "s ("
        << static_cast<double>(stats.inserted) / elapsed_s << " rec/s)\n";
  }

  const auto stitched = service.CurrentStitched();
  if (stitched == nullptr) {
    log << "no snapshot published: fewer than k=" << options.k
        << " records were ingested\n";
    // A recover-only pass over a near-empty log is not a failure, and
    // neither is a fault run whose disk died before k records landed, nor
    // an HTTP serve window in which no client happened to send records.
    return options.recover_only || server != nullptr ||
                   stats.health == ServiceHealth::kDegraded
               ? 0
               : 1;
  }
  const StitchedInfo& info = stitched->info();
  const PartitionSet base_release = stitched->Release(info.base_k);
  log << "final snapshot: epoch=" << info.epoch
      << " records=" << info.records
      << " partitions=" << base_release.num_partitions()
      << " min_partition=" << base_release.min_partition_size()
      << " max_partition=" << base_release.max_partition_size()
      << " avgNCP=" << AverageBoxNcp(base_release, stitched->domain())
      << "\n";

  // A shard smaller than k1 caps what the stitched release can guarantee
  // for its slice, exactly like info.records caps the unsharded check.
  size_t min_covered_records = info.records;
  for (size_t i = 0; i < info.shard_records.size(); ++i) {
    if (info.shard_epochs[i] > 0) {
      min_covered_records = std::min(min_covered_records,
                                     info.shard_records[i]);
    }
  }

  for (const size_t k1 : options.releases) {
    auto release = service.GetRelease(k1);
    if (!release.ok()) {
      log << release.status() << "\n";
      return 1;
    }
    const size_t effective_k = std::min(std::max(k1, options.k),
                                        min_covered_records);
    if (auto s = release->CheckKAnonymous(effective_k); !s.ok()) {
      log << "internal error, refusing to publish k1=" << k1 << ": " << s
          << "\n";
      return 1;
    }
    log << "release k1=" << k1 << ": partitions="
        << release->num_partitions() << " min_partition="
        << release->min_partition_size() << " avgNCP="
        << AverageBoxNcp(*release, stitched->domain()) << "\n";
  }
  return 0;
}

}  // namespace kanon::cli
