#include "cli_lib.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "common/env.h"
#include "common/thread.h"
#include "kanon/kanon.h"

namespace kanon::cli {

namespace {

/// Set by the SIGTERM/SIGINT handler; ServeUntilDrained polls it while the
/// HTTP server is up and starts the graceful drain when it flips.
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

// ---------------------------------------------------------------------------
// Strict value parsing. Every flag value goes through one of these: the
// whole token must parse, so a malformed value is a usage error and never
// silently becomes some other value.

/// An unsigned integer in [min, max]: digits only, no sign, no overflow.
template <typename T>
bool ParseUnsigned(std::string_view value, T* out, uint64_t min = 0,
                   uint64_t max = std::numeric_limits<T>::max()) {
  uint64_t parsed = 0;
  if (!net::ParseU64Param(value, &parsed) || parsed < min || parsed > max) {
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

/// A finite double, at least `min`.
bool ParseReal(std::string_view value, double* out,
               double min = -std::numeric_limits<double>::infinity()) {
  double parsed = 0.0;
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, parsed);
  if (ec != std::errc() || ptr != last || !std::isfinite(parsed) ||
      parsed < min) {
    return false;
  }
  *out = parsed;
  return true;
}

using Setter = std::function<bool(std::string_view)>;

Setter Text(std::string* out) {
  return [out](std::string_view value) {
    *out = value;
    return true;
  };
}

Setter Switch(bool* out) {
  return [out](std::string_view) { return *out = true; };
}

template <typename T>
Setter Unsigned(T* out, uint64_t min = 0,
                uint64_t max = std::numeric_limits<T>::max()) {
  return [=](std::string_view value) {
    return ParseUnsigned(value, out, min, max);
  };
}

Setter Real(double* out,
            double min = -std::numeric_limits<double>::infinity()) {
  return [=](std::string_view value) { return ParseReal(value, out, min); };
}

/// K[,K...]: appends every element to *out.
Setter UnsignedList(std::vector<size_t>* out) {
  return [out](std::string_view value) {
    for (const std::string& field : SplitCsvLine(std::string(value), ',')) {
      size_t parsed = 0;
      if (!ParseUnsigned(field, &parsed)) return false;
      out->push_back(parsed);
    }
    return true;
  };
}

/// LO:HI[,LO:HI...]: appends one range (LO <= HI) per field to *out.
Setter Ranges(Domain* out) {
  return [out](std::string_view value) {
    for (const std::string& field : SplitCsvLine(std::string(value), ',')) {
      const std::string_view range = field;
      const size_t colon = range.find(':');
      double lo = 0.0;
      double hi = 0.0;
      if (colon == std::string_view::npos ||
          !ParseReal(range.substr(0, colon), &lo) ||
          !ParseReal(range.substr(colon + 1), &hi) || lo > hi) {
        return false;
      }
      out->lo.push_back(lo);
      out->hi.push_back(hi);
    }
    return out->dim() > 0;
  };
}

/// The one parse loop: every token is a `--flag` row of `flags`, followed
/// by its value unless the row is a switch.
bool ParseFlags(int argc, const char* const* argv,
                const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) return false;
    std::string name(arg.substr(2));
    std::replace(name.begin(), name.end(), '_', '-');
    const auto row =
        std::find_if(flags.begin(), flags.end(),
                     [&name](const Flag& flag) { return flag.name == name; });
    if (row == flags.end()) return false;
    std::string_view value;
    if (!row->value.empty()) {
      if (++i == argc) return false;
      value = argv[i];
    }
    if (!row->set(value)) return false;
  }
  return true;
}

}  // namespace

std::vector<Flag> CliFlags(CliOptions* o) {
  return {
      {"input", "FILE", Text(&o->input)},
      {"output", "FILE", Text(&o->output)},
      {"k", "K", Unsigned(&o->k, 1)},
      {"schema", "SPEC", Text(&o->schema_path)},
      {"columns", "N", Unsigned(&o->columns)},
      {"skip-header", "", Switch(&o->skip_header)},
      {"algorithm", "rtree|mondrian|grid", Text(&o->algorithm)},
      {"ldiversity", "L", Unsigned(&o->ldiversity)},
      {"entropy", "L", Real(&o->entropy_l)},
      {"recursive", "C,L",
       [o](std::string_view value) {
         const auto parts = SplitCsvLine(std::string(value), ',');
         return parts.size() == 2 && ParseReal(parts[0], &o->recursive_c) &&
                ParseUnsigned(parts[1], &o->recursive_l);
       }},
      {"alpha", "A", Real(&o->alpha)},
      {"uncompacted", "", Switch(&o->uncompacted)},
      {"bias", "COL[,COL...]", UnsignedList(&o->bias)},
      {"metrics", "", Switch(&o->metrics)},
      {"threads", "N", Unsigned(&o->threads, 1)},
  };
}

std::vector<Flag> ServeFlags(ServeOptions* o) {
  ServiceOptions& service = o->service.service;
  return {
      {"input", "FILE", Text(&o->input)},
      {"schema", "SPEC", Text(&o->schema_path)},
      {"columns", "N", Unsigned(&o->columns)},
      {"skip-header", "", Switch(&o->skip_header)},
      {"k", "K", Unsigned(&service.anonymizer.base_k, 1)},
      {"producers", "P", Unsigned(&o->producers, 1)},
      {"rate", "R", Real(&o->rate)},
      {"queue", "N", Unsigned(&service.queue_capacity, 1)},
      {"batch", "B", Unsigned(&service.max_batch, 1)},
      {"snapshot-every", "N", Unsigned(&service.snapshot_every)},
      {"reject", "",
       [&service](std::string_view) {
         service.backpressure = BackpressureMode::kReject;
         return true;
       }},
      {"release", "K1[,K1...]", UnsignedList(&o->releases)},
      {"wal-dir", "DIR", Text(&service.durability.wal_dir)},
      {"fsync-every", "N", Unsigned(&service.durability.fsync_every)},
      {"checkpoint-every", "N",
       Unsigned(&service.durability.checkpoint_every)},
      {"recover-only", "", Switch(&o->recover_only)},
      {"listen", "HOST:PORT",
       [o](std::string_view value) {
         o->listen = ParseListenAddress(std::string(value), &o->http.host,
                                        &o->http.port);
         return o->listen;
       }},
      {"http-threads", "N", Unsigned(&o->http.num_threads, 1)},
      {"max-body-bytes", "N", Unsigned(&o->http.parser.max_body_bytes, 1)},
      {"domain", "LO:HI[,LO:HI...]", Ranges(&o->domain)},
      {"serve-seconds", "S", Real(&o->serve_seconds, 0.0)},
      {"shards", "N", Unsigned(&o->service.sharding.num_shards, 1)},
      {"shard-by", "hash|range",
       [o](std::string_view value) {
         const auto by = ShardByFromName(std::string(value));
         if (by.ok()) o->service.sharding.shard_by = *by;
         return by.ok();
       }},
      {"follow", "LEADER:PORT",
       [o](std::string_view value) {
         std::string leader(value);
         if (leader.starts_with("http://")) leader.erase(0, 7);
         if (leader.ends_with('/')) leader.pop_back();
         net::FollowerOptions& f = o->follower;
         o->follow = ParseListenAddress(leader, &f.leader_host,
                                        &f.leader_port) &&
                     f.leader_port != 0;
         return o->follow;
       }},
      {"max-staleness-ms", "MS", Unsigned(&o->follower.max_staleness_ms, 1)},
      {"stale-reads", "serve|reject",
       [o](std::string_view value) {
         o->follower.reject_stale_reads = value == "reject";
         return value == "serve" || value == "reject";
       }},
      {"repl-poll-ms", "MS", Unsigned(&o->follower.poll_interval_ms, 1)},
      {"dp-height", "H", Unsigned(&service.dp_height, 0, 39)},
      {"dp-budget", "EPS", Real(&o->dp.budget)},
      {"dp-lifetime-budget", "EPS", Real(&o->dp.lifetime_budget)},
      {"dp-key", "SECRET", Text(&o->dp.key_secret)},
      {"dp-metrics-utility", "", Switch(&o->dp.utility_in_metrics)},
  };
}

bool ParseArgs(int argc, const char* const* argv, CliOptions* options) {
  return ParseFlags(argc, argv, CliFlags(options)) &&
         !options->input.empty() && !options->output.empty();
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
      ro.backend = RTreeAnonymizerOptions::Backend::kTopDownBulkLoad;
      ro.threads = options.threads;
      log << "top-down bulk load on " << options.threads << " thread"
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
  uint16_t value = 0;
  if (!ParseUnsigned(port_part, &value)) return false;
  *host = host_part;
  *port = value;
  return true;
}

bool ParseServeArgs(int argc, const char* const* argv,
                    ServeOptions* options) {
  if (!ParseFlags(argc, argv, ServeFlags(options))) return false;
  const ServeOptions& o = *options;
  const bool durable = o.service.service.durability.enabled();
  if (o.follow) {
    // A follower's records arrive only via replication: local ingest and
    // durability paths are contradictions, not defaults to ignore.
    return o.listen && o.domain.dim() > 0 && o.input.empty() && !durable &&
           o.service.sharding.num_shards == 1 && !o.recover_only;
  }
  // A record source is required: --input, or HTTP ingest (--listen plus
  // --domain, which supplies the dimensionality --input would have), or a
  // recover-only replay with --domain.
  const bool source_ok =
      !o.input.empty() ||
      (o.domain.dim() > 0 && (o.listen || o.recover_only));
  return source_ok && (!o.recover_only || durable);
}

namespace {

/// Starts either role's HTTP server on `http`, routing to `frontend`, and
/// prints the "listening on" line harnesses wait for; `role` closes it.
/// Null (after logging why) when the listener cannot start.
template <typename Frontend>
std::unique_ptr<net::HttpServer> Listen(const net::HttpServerOptions& http,
                                        Frontend* frontend,
                                        const std::string& role,
                                        std::ostream& log) {
  auto server = std::make_unique<net::HttpServer>(
      http, [frontend](const net::HttpRequest& request) {
        return frontend->Handle(request);
      });
  frontend->SetServerStats([s = server.get()] { return s->stats(); });
  if (auto s = server->Start(); !s.ok()) {
    log << s << "\n";
    return nullptr;
  }
  g_signal.store(0, std::memory_order_relaxed);
  InstallDrainSignalHandlers();
  log << "listening on " << server->host() << ":" << server->bound_port()
      << " (epoll, " << http.num_threads << " threads, " << role << ")\n";
  return server;
}

/// Serves until SIGTERM/SIGINT (or --serve-seconds for scripted runs),
/// then drains: the server finishes in-flight requests before the caller
/// stops whatever owns the records, so every 200 a client saw is
/// acknowledged.
void ServeUntilDrained(net::HttpServer* server, double serve_seconds,
                       std::ostream& log) {
  Timer serving;
  while (g_signal.load(std::memory_order_relaxed) == 0) {
    if (serve_seconds > 0.0 && serving.ElapsedSeconds() >= serve_seconds) {
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

/// The "final snapshot:" line of either role.
void ReportFinalSnapshot(const StitchedSnapshot& stitched,
                         std::ostream& log) {
  const StitchedInfo& info = stitched.info();
  const PartitionSet base_release = stitched.Release(info.base_k);
  log << "final snapshot: epoch=" << info.epoch
      << " records=" << info.records
      << " partitions=" << base_release.num_partitions()
      << " min_partition=" << base_release.min_partition_size()
      << " max_partition=" << base_release.max_partition_size()
      << " avgNCP=" << AverageBoxNcp(base_release, stitched.domain())
      << "\n";
}

/// `kanon_cli serve --follow`: run as a read replica, on the same serve
/// harness as the leader so the same scripts drive both.
int RunFollower(const ServeOptions& options, std::ostream& log) {
  net::FollowerOptions follower_options = options.follower;
  follower_options.dp = options.dp;
  net::ReplicatedFollower follower(options.domain, follower_options);
  net::FollowerFrontend frontend(&follower);
  const auto server = Listen(options.http, &frontend, "follower", log);
  if (server == nullptr) return 1;
  log << "following http://" << follower_options.leader_host << ":"
      << follower_options.leader_port
      << " max_staleness_ms=" << follower_options.max_staleness_ms
      << " stale_reads="
      << (follower_options.reject_stale_reads ? "reject" : "serve") << "\n";
  follower.Start();
  ServeUntilDrained(server.get(), options.serve_seconds, log);
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
  ReportFinalSnapshot(*stitched, log);
  return 0;
}

}  // namespace

int RunServe(const ServeOptions& options, std::ostream& log) {
  if (options.follow) return RunFollower(options, log);
  // Two record sources: a CSV replayed by producer threads (--input) and
  // records POSTed over HTTP (--listen). HTTP-only serving has no file to
  // infer the dimensionality and domain from, so --domain supplies both.
  std::optional<Dataset> dataset;
  Domain domain = options.domain;
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
    domain = dataset->ComputeDomain();
  }
  const size_t n = dataset ? dataset->num_records() : 0;
  const size_t k = options.service.service.anonymizer.base_k;
  const size_t shards = options.service.sharding.num_shards;
  const bool durable = options.service.service.durability.enabled();
  ShardedServiceOptions service_options = options.service;
  DurabilityOptions& durability = service_options.service.durability;

  // KANON_FAULT_SEED routes all durability I/O through a FaultInjectionEnv
  // — the operational fault drill. The same seed injects the same faults,
  // so a degraded run reported by CI reproduces locally from its seed.
  // KANON_FAULT_MEAN_OPS (default 2000) sets the fault rate and
  // KANON_FAULT_BREAK_AFTER (default 0 = never) makes the disk die
  // outright after that many operations.
  std::unique_ptr<FaultInjectionEnv> fault_env;
  const char* fault_seed = std::getenv("KANON_FAULT_SEED");
  if (fault_seed != nullptr && *fault_seed != '\0' && durable &&
      !options.recover_only) {
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
    fault_options.path_filter = durability.wal_dir;
    fault_options.sync_faults = true;
    fault_env =
        std::make_unique<FaultInjectionEnv>(Env::Default(), fault_options);
    durability.env = fault_env.get();
    // Fast, bounded degradation under a dead disk: don't spend seconds
    // backing off when the schedule says every retry will fail too.
    durability.retry_backoff_ms = 1;
    durability.retry_backoff_max_ms = 8;
    log << "fault injection: seed=" << fault_options.seed
        << " mean_ops=" << fault_options.mean_ops_between_faults
        << " break_after=" << fault_options.break_after_ops << "\n";
  }
  auto service_or = ShardedAnonymizationService::Create(domain.dim(), domain,
                                                        service_options);
  if (!service_or.ok()) {
    log << service_or.status() << "\n";
    return 1;
  }
  ShardedAnonymizationService& service = **service_or;
  if (durable) {
    if (shards == 1) {
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
  if (options.listen) {
    frontend = std::make_unique<net::AnonHttpFrontend>(&service, options.dp);
    const std::string role =
        std::to_string(shards) + (shards == 1 ? " shard" : " shards");
    server = Listen(options.http, frontend.get(), role, log);
    if (server == nullptr) return 1;
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
    ServeUntilDrained(server.get(), options.serve_seconds, log);
  }
  service.Stop();
  const double elapsed_s = timer.ElapsedSeconds();

  const ShardedServiceStats sharded_stats = service.Stats();
  const ServiceStats& stats = sharded_stats.total;
  log << FormatServiceStats(stats) << "\n";
  if (shards > 1) {
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
    log << "no snapshot published: fewer than k=" << k
        << " records were ingested\n";
    // A recover-only pass over a near-empty log is not a failure, and
    // neither is a fault run whose disk died before k records landed, nor
    // an HTTP serve window in which no client happened to send records.
    return options.recover_only || server != nullptr ||
                   stats.health == ServiceHealth::kDegraded
               ? 0
               : 1;
  }
  ReportFinalSnapshot(*stitched, log);
  const StitchedInfo& info = stitched->info();

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
    const size_t effective_k = std::min(std::max(k1, k),
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
