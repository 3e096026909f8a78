// serve_smoke — CI perf smoke for the HTTP serving subsystem (src/net/ +
// src/shard/).
//
//   serve_smoke [--records N] [--batch B] [--writers W] [--readers R]
//               [--shards S] [--shard-by hash|range] [--snapshot-every E]
//               [--sweep "1,2,4,8"]
//               [--replicas "0,1,2,4"] [--dp-sweep "0.1,0.5,1,2"]
//               [--json PATH]
//
// Starts the full serving stack in-process — the sharded anonymization
// service behind the epoll HTTP server on an ephemeral loopback port —
// then drives it the way a deployment would: W keep-alive writers POST
// /ingest NDJSON batches of B records until N records are acknowledged,
// while R readers issue GET /release/query?k1=...&summary=1 the whole
// time. Reports ingest and release throughput with per-request latency
// percentiles, and always writes BENCH_serve.json (CI uploads it) unless
// --json names another path.
//
// --sweep runs the same workload once per shard count and writes
// BENCH_shards.json with per-shard and aggregate ingest throughput — the
// scaling evidence for the sharded tentpole. Writers scale with the shard
// count in sweep mode (max(W, shards)) so client concurrency is never the
// artificial ceiling.
//
// --replicas runs the read-scaling sweep and writes BENCH_replicas.json:
// once per replica count N, a durable leader ingests the stream over HTTP
// while N --follow-style read replicas (in-process ReplicatedFollower +
// FollowerFrontend, each behind its own HTTP server) tail its WAL; readers
// round-robin GET /release/query across the leader and every replica. The
// sweep reports aggregate release QPS vs replica count plus the epoch lag
// (leader epoch minus replica epoch, sampled under ingest, p50/p99) — the
// capacity/freshness trade of read replication — and fails unless every
// replica converges to a byte-identical /release after ingest quiesces.
//
// --dp-sweep runs the differentially-private release sweep and writes
// BENCH_dp.json: one publication of the standard grid stream, then per
// epsilon the cost (noisy-hierarchy build latency) and the utility
// (average relative range-query error over the fixed grid-box workload,
// both for the DP hierarchy and for the k-anonymous release it competes
// with) — the fig-12-style privacy/utility curve as a CI artifact.
//
// Exit codes: 0 on success, 1 when the stack misbehaves (failed request,
// lost records, no snapshot) — so CI fails loudly, not just slowly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "dp/dp_release.h"
#include "net/anon_http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/replication.h"
#include "shard/sharded_service.h"

namespace {

using namespace kanon;

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct SideStats {
  uint64_t requests = 0;
  double seconds = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

std::string SideJson(const SideStats& s, double per_second) {
  return "{\"requests\": " + std::to_string(s.requests) +
         ", \"seconds\": " + std::to_string(s.seconds) +
         ", \"per_second\": " + std::to_string(per_second) +
         ", \"p50_ms\": " + std::to_string(s.p50) +
         ", \"p95_ms\": " + std::to_string(s.p95) +
         ", \"p99_ms\": " + std::to_string(s.p99) + "}";
}

struct RunConfig {
  size_t records = 0;
  size_t batch = 50;
  size_t writers = 2;
  size_t readers = 2;
  size_t shards = 1;
  ShardBy shard_by = ShardBy::kHash;
  /// Publication cadence (0 = pick a default: 5000 for a single run, and
  /// records/5 in sweep mode). Snapshot builds run on each shard's ingest
  /// thread and scan that shard's whole tree, so the cadence sets how much
  /// of the ingest budget goes to publication — the cost sharding divides:
  /// at the same cadence an N-shard service rebuilds trees 1/N the size.
  uint64_t snapshot_every = 0;
};

struct RunResult {
  bool ok = false;
  double ingest_rec_per_s = 0;
  double release_req_per_s = 0;
  SideStats ingest;
  SideStats release;
  std::vector<uint64_t> per_shard_inserted;
  /// Records the served snapshot trailed acknowledged ingest by, sampled
  /// per successful /release request.
  double staleness_p50 = 0, staleness_p99 = 0, staleness_max = 0;
};

RunResult RunOnce(const RunConfig& cfg) {
  RunResult result;
  Domain domain;
  domain.lo = {0, 0};
  domain.hi = {100, 100};
  ShardedServiceOptions service_options;
  service_options.service.anonymizer.base_k = 10;
  service_options.service.snapshot_every = cfg.snapshot_every;
  service_options.sharding.num_shards = cfg.shards;
  service_options.sharding.shard_by = cfg.shard_by;
  auto service_or =
      ShardedAnonymizationService::Create(2, domain, service_options);
  if (!service_or.ok()) {
    std::cerr << "service: " << service_or.status() << "\n";
    return result;
  }
  ShardedAnonymizationService& service = **service_or;
  net::AnonHttpFrontend frontend(&service);
  net::HttpServerOptions http_options;
  http_options.port = 0;
  http_options.num_threads = cfg.writers + cfg.readers;
  net::HttpServer server(http_options,
                         [&frontend](const net::HttpRequest& request) {
                           return frontend.Handle(request);
                         });
  frontend.SetServerStats([&server] { return server.stats(); });
  if (auto s = server.Start(); !s.ok()) {
    std::cerr << "server: " << s << "\n";
    return result;
  }
  std::cout << "listening on 127.0.0.1:" << server.bound_port() << " (epoll, "
            << cfg.shards << " shard" << (cfg.shards == 1 ? "" : "s")
            << ")\n";

  const size_t posts_total = (cfg.records + cfg.batch - 1) / cfg.batch;
  std::atomic<size_t> next_post{0};
  std::atomic<bool> writers_done{false};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::vector<double> ingest_lat_ms;
  std::vector<double> release_lat_ms;
  std::vector<double> staleness_records;
  uint64_t release_requests = 0;

  Timer wall;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < cfg.writers; ++w) {
    threads.emplace_back([&] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", server.bound_port()).ok()) {
        failed.store(true);
        return;
      }
      std::vector<double> lat;
      for (size_t p = next_post.fetch_add(1); p < posts_total;
           p = next_post.fetch_add(1)) {
        const size_t base = p * cfg.batch;
        const size_t n = std::min(cfg.batch, cfg.records - base);
        std::string body;
        body.reserve(n * 12);
        for (size_t i = 0; i < n; ++i) {
          const size_t v = base + i;
          body += std::to_string(v % 97) + "," +
                  std::to_string((v * 7) % 89) + "," +
                  std::to_string(v % 5) + "\n";
        }
        Timer t;
        auto resp = client.Post("/ingest", body);
        if (!resp.ok() || resp->status != 200) {
          failed.store(true);
          return;
        }
        lat.push_back(t.ElapsedMillis());
      }
      std::lock_guard<std::mutex> lock(mu);
      ingest_lat_ms.insert(ingest_lat_ms.end(), lat.begin(), lat.end());
    });
  }
  for (size_t r = 0; r < cfg.readers; ++r) {
    threads.emplace_back([&, r] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", server.bound_port()).ok()) {
        failed.store(true);
        return;
      }
      const std::string target =
          "/release/query?k1=" + std::to_string(10 << (r % 3)) +
          "&summary=1";
      std::vector<double> lat;
      std::vector<double> stale;
      while (!writers_done.load(std::memory_order_relaxed)) {
        // Acknowledged count sampled before the request: every record
        // acked by then but missing from the answered snapshot is
        // staleness this reader observed.
        const uint64_t acked = frontend.accepted();
        Timer t;
        auto resp = client.Get(target);
        // 503 before the first snapshot is expected early on.
        if (!resp.ok() ||
            (resp->status != 200 && resp->status != 503)) {
          failed.store(true);
          return;
        }
        if (resp->status == 200) {
          lat.push_back(t.ElapsedMillis());
          const size_t pos = resp->body.find("\"records\":");
          if (pos != std::string::npos) {
            const uint64_t covered =
                std::strtoull(resp->body.c_str() + pos + 10, nullptr, 10);
            stale.push_back(acked > covered
                                ? static_cast<double>(acked - covered)
                                : 0.0);
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      release_requests += lat.size();
      release_lat_ms.insert(release_lat_ms.end(), lat.begin(), lat.end());
      staleness_records.insert(staleness_records.end(), stale.begin(),
                               stale.end());
    });
  }
  for (size_t w = 0; w < cfg.writers; ++w) threads[w].join();
  const double ingest_seconds = wall.ElapsedSeconds();
  writers_done.store(true, std::memory_order_relaxed);
  for (size_t t = cfg.writers; t < threads.size(); ++t) threads[t].join();
  const double total_seconds = wall.ElapsedSeconds();

  server.Shutdown();
  service.Stop();

  const auto stitched = service.CurrentStitched();
  const uint64_t accepted = frontend.accepted();
  if (failed.load() || stitched == nullptr || accepted != cfg.records ||
      stitched->info().records != cfg.records) {
    std::cerr << "FAIL: accepted=" << accepted << " want=" << cfg.records
              << " snapshot_records="
              << (stitched != nullptr ? stitched->info().records : 0)
              << (failed.load() ? " (request failures)" : "") << "\n";
    return result;
  }

  result.ingest.requests = posts_total;
  result.ingest.seconds = ingest_seconds;
  result.ingest.p50 = Percentile(&ingest_lat_ms, 50);
  result.ingest.p95 = Percentile(&ingest_lat_ms, 95);
  result.ingest.p99 = Percentile(&ingest_lat_ms, 99);
  result.ingest_rec_per_s =
      static_cast<double>(cfg.records) / std::max(ingest_seconds, 1e-9);

  result.release.requests = release_requests;
  result.release.seconds = total_seconds;
  result.release.p50 = Percentile(&release_lat_ms, 50);
  result.release.p95 = Percentile(&release_lat_ms, 95);
  result.release.p99 = Percentile(&release_lat_ms, 99);
  result.release_req_per_s = static_cast<double>(release_requests) /
                             std::max(total_seconds, 1e-9);

  result.staleness_p50 = Percentile(&staleness_records, 50);
  result.staleness_p99 = Percentile(&staleness_records, 99);
  if (!staleness_records.empty()) {
    result.staleness_max = staleness_records.back();  // sorted by Percentile
  }

  const ShardedServiceStats stats = service.Stats();
  for (const ServiceStats& s : stats.shards) {
    result.per_shard_inserted.push_back(s.inserted);
  }

  bench::TablePrinter table(
      {"side", "requests", "throughput", "p50 ms", "p95 ms", "p99 ms"});
  table.AddRow({"ingest", bench::FmtInt(result.ingest.requests),
                bench::Fmt(result.ingest_rec_per_s, 0) + " rec/s",
                bench::Fmt(result.ingest.p50),
                bench::Fmt(result.ingest.p95),
                bench::Fmt(result.ingest.p99)});
  table.AddRow({"release", bench::FmtInt(result.release.requests),
                bench::Fmt(result.release_req_per_s, 0) + " req/s",
                bench::Fmt(result.release.p50),
                bench::Fmt(result.release.p95),
                bench::Fmt(result.release.p99)});
  table.Print();
  std::cout << "staleness p50=" << bench::Fmt(result.staleness_p50, 0)
            << " p99=" << bench::Fmt(result.staleness_p99, 0)
            << " max=" << bench::Fmt(result.staleness_max, 0)
            << " records behind\n";
  const PartitionSet base_release =
      stitched->Release(stitched->info().base_k);
  std::cout << "final snapshot: epoch=" << stitched->info().epoch
            << " records=" << stitched->info().records
            << " partitions=" << base_release.num_partitions() << "\n";
  result.ok = true;
  return result;
}

struct ReplicaResult {
  bool ok = false;
  double ingest_rec_per_s = 0;
  double release_req_per_s = 0;
  SideStats release;
  double epoch_lag_p50 = 0, epoch_lag_p99 = 0, epoch_lag_max = 0;
  bool byte_identical = false;
  uint64_t repl_bytes = 0;
  uint64_t reconnects = 0;
};

/// One point of the read-scaling sweep: a durable leader takes the record
/// stream over POST /ingest while `replicas` in-process read replicas tail
/// its WAL; readers round-robin releases across leader + replicas. Epoch
/// lag (leader epoch − replica epoch) is sampled while ingest runs; after
/// the writers join, every replica must converge to a byte-identical
/// /release — the correctness gate the throughput numbers ride on.
ReplicaResult RunReplicaPoint(const RunConfig& cfg, size_t replicas) {
  namespace fs = std::filesystem;
  ReplicaResult result;
  char tmpl[] = "/tmp/kanon_replica_smoke_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) return result;
  const std::string workdir = tmpl;

  Domain domain;
  domain.lo = {0, 0};
  domain.hi = {100, 100};
  ShardedServiceOptions service_options;
  service_options.service.anonymizer.base_k = 10;
  service_options.service.snapshot_every = cfg.snapshot_every;
  service_options.service.durability.wal_dir = workdir + "/wal";
  service_options.service.durability.fsync_every = 64;
  auto service_or =
      ShardedAnonymizationService::Create(2, domain, service_options);
  if (!service_or.ok()) {
    std::cerr << "service: " << service_or.status() << "\n";
    return result;
  }
  ShardedAnonymizationService& service = **service_or;
  net::AnonHttpFrontend frontend(&service);
  net::HttpServerOptions http_options;
  http_options.port = 0;
  http_options.num_threads = cfg.writers + 2;
  net::HttpServer leader(http_options,
                         [&frontend](const net::HttpRequest& request) {
                           return frontend.Handle(request);
                         });
  if (auto s = leader.Start(); !s.ok()) {
    std::cerr << "leader: " << s << "\n";
    return result;
  }

  struct Replica {
    std::unique_ptr<net::ReplicatedFollower> follower;
    std::unique_ptr<net::FollowerFrontend> frontend;
    std::unique_ptr<net::HttpServer> server;
  };
  std::vector<Replica> fleet;
  for (size_t r = 0; r < replicas; ++r) {
    net::FollowerOptions fopts;
    fopts.leader_port = leader.bound_port();
    fopts.scratch_dir = workdir + "/replica_" + std::to_string(r);
    fopts.poll_interval_ms = 5;
    fopts.jitter_seed = r + 1;
    fopts.core.max_staleness_ms = 60000;  // lag is measured, not enforced
    Replica replica;
    replica.follower =
        std::make_unique<net::ReplicatedFollower>(domain, fopts);
    replica.frontend =
        std::make_unique<net::FollowerFrontend>(replica.follower.get());
    net::HttpServerOptions ropts;
    ropts.port = 0;
    ropts.num_threads = 2;
    replica.server = std::make_unique<net::HttpServer>(
        ropts, [f = replica.frontend.get()](const net::HttpRequest& req) {
          return f->Handle(req);
        });
    if (auto s = replica.server->Start(); !s.ok()) {
      std::cerr << "replica " << r << ": " << s << "\n";
      return result;
    }
    replica.follower->Start();
    fleet.push_back(std::move(replica));
  }

  // Readers round-robin the whole serving set. Client concurrency tracks
  // the server count so the readers are never the ceiling that hides
  // replica scaling.
  std::vector<uint16_t> read_ports = {leader.bound_port()};
  for (const Replica& r : fleet) read_ports.push_back(r.server->port());
  const size_t readers = std::max(cfg.readers, 2 * read_ports.size());

  const size_t posts_total = (cfg.records + cfg.batch - 1) / cfg.batch;
  std::atomic<size_t> next_post{0};
  std::atomic<bool> writers_done{false};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::vector<double> release_lat_ms;
  uint64_t release_requests = 0;

  Timer wall;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < cfg.writers; ++w) {
    threads.emplace_back([&] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", leader.bound_port()).ok()) {
        failed.store(true);
        return;
      }
      for (size_t p = next_post.fetch_add(1); p < posts_total;
           p = next_post.fetch_add(1)) {
        const size_t base = p * cfg.batch;
        const size_t n = std::min(cfg.batch, cfg.records - base);
        std::string body;
        body.reserve(n * 12);
        for (size_t i = 0; i < n; ++i) {
          const size_t v = base + i;
          body += std::to_string(v % 97) + "," +
                  std::to_string((v * 7) % 89) + "," +
                  std::to_string(v % 5) + "\n";
        }
        auto resp = client.Post("/ingest", body);
        if (!resp.ok() || resp->status != 200) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      net::HttpClient client;
      const uint16_t port = read_ports[r % read_ports.size()];
      if (!client.Connect("127.0.0.1", port).ok()) {
        failed.store(true);
        return;
      }
      const std::string target =
          "/release/query?k1=" + std::to_string(10 << (r % 3)) +
          "&summary=1";
      std::vector<double> lat;
      while (!writers_done.load(std::memory_order_relaxed)) {
        Timer t;
        auto resp = client.Get(target);
        // 503 before the first snapshot reaches this server is expected.
        if (!resp.ok() || (resp->status != 200 && resp->status != 503)) {
          failed.store(true);
          return;
        }
        if (resp->status == 200) lat.push_back(t.ElapsedMillis());
      }
      std::lock_guard<std::mutex> lock(mu);
      release_requests += lat.size();
      release_lat_ms.insert(release_lat_ms.end(), lat.begin(), lat.end());
    });
  }
  // Epoch-lag sampler: how many publications each replica trails the
  // leader by while ingest is in flight — the freshness side of the trade.
  std::vector<double> lag_samples;
  std::thread sampler([&] {
    while (!writers_done.load(std::memory_order_relaxed)) {
      const auto stitched = service.CurrentStitched();
      if (stitched != nullptr) {
        const uint64_t leader_epoch = stitched->info().epoch;
        std::vector<double> local;
        for (const Replica& r : fleet) {
          const uint64_t e = r.follower->core()->epoch();
          local.push_back(
              leader_epoch > e ? static_cast<double>(leader_epoch - e) : 0);
        }
        std::lock_guard<std::mutex> lock(mu);
        lag_samples.insert(lag_samples.end(), local.begin(), local.end());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (size_t w = 0; w < cfg.writers; ++w) threads[w].join();
  const double ingest_seconds = wall.ElapsedSeconds();
  writers_done.store(true, std::memory_order_relaxed);
  for (size_t t = cfg.writers; t < threads.size(); ++t) threads[t].join();
  const double total_seconds = wall.ElapsedSeconds();
  sampler.join();

  // Convergence gate: after ingest quiesces every replica must reach the
  // leader's last publication point and serve the same bytes.
  bool converged = true;
  const auto final_stitched = service.CurrentStitched();
  if (final_stitched == nullptr) {
    converged = false;
  } else {
    const uint64_t want_epoch = final_stitched->info().epoch;
    const uint64_t want_records = final_stitched->info().records;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (const Replica& r : fleet) {
      while (r.follower->core()->epoch() != want_epoch ||
             r.follower->core()->published_records() != want_records) {
        if (std::chrono::steady_clock::now() > deadline) {
          converged = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  result.byte_identical = converged;
  if (converged) {
    net::HttpClient probe;
    std::string leader_body;
    if (probe.Connect("127.0.0.1", leader.bound_port()).ok()) {
      if (auto resp = probe.Get("/release"); resp.ok()) {
        leader_body = std::move(resp->body);
      }
    }
    for (const Replica& r : fleet) {
      net::HttpClient rc;
      if (!rc.Connect("127.0.0.1", r.server->port()).ok()) {
        result.byte_identical = false;
        break;
      }
      auto resp = rc.Get("/release");
      if (!resp.ok() || leader_body.empty() || resp->body != leader_body) {
        result.byte_identical = false;
        break;
      }
    }
  }

  for (Replica& r : fleet) {
    result.repl_bytes += r.follower->bytes_total();
    result.reconnects += r.follower->reconnects();
    r.server->Shutdown();
    r.follower->Stop();
  }
  leader.Shutdown();
  service.Stop();

  const uint64_t accepted = frontend.accepted();
  if (failed.load() || !converged || !result.byte_identical ||
      accepted != cfg.records) {
    std::cerr << "FAIL: replicas=" << replicas << " accepted=" << accepted
              << " want=" << cfg.records << " converged=" << converged
              << " identical=" << result.byte_identical
              << (failed.load() ? " (request failures)" : "") << "\n";
    std::error_code ec;
    fs::remove_all(workdir, ec);
    return result;
  }

  result.ingest_rec_per_s =
      static_cast<double>(cfg.records) / std::max(ingest_seconds, 1e-9);
  result.release.requests = release_requests;
  result.release.seconds = total_seconds;
  result.release.p50 = Percentile(&release_lat_ms, 50);
  result.release.p95 = Percentile(&release_lat_ms, 95);
  result.release.p99 = Percentile(&release_lat_ms, 99);
  result.release_req_per_s =
      static_cast<double>(release_requests) / std::max(total_seconds, 1e-9);
  result.epoch_lag_p50 = Percentile(&lag_samples, 50);
  result.epoch_lag_p99 = Percentile(&lag_samples, 99);
  if (!lag_samples.empty()) {
    result.epoch_lag_max = lag_samples.back();  // sorted by Percentile
  }

  std::cout << "release: " << bench::Fmt(result.release_req_per_s, 0)
            << " req/s across " << read_ports.size() << " server"
            << (read_ports.size() == 1 ? "" : "s")
            << " (p50=" << bench::Fmt(result.release.p50)
            << "ms p99=" << bench::Fmt(result.release.p99) << "ms), ingest "
            << bench::Fmt(result.ingest_rec_per_s, 0) << " rec/s\n";
  if (replicas > 0) {
    std::cout << "epoch lag under ingest: p50="
              << bench::Fmt(result.epoch_lag_p50, 1)
              << " p99=" << bench::Fmt(result.epoch_lag_p99, 1)
              << " max=" << bench::Fmt(result.epoch_lag_max, 0)
              << " epochs; converged byte-identical, repl_bytes="
              << result.repl_bytes << " reconnects=" << result.reconnects
              << "\n";
  }
  std::error_code ec;
  fs::remove_all(workdir, ec);
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.records = bench::Scaled(50000);
  std::string json_path;
  std::vector<size_t> sweep;
  std::vector<size_t> replica_sweep;
  bool have_replica_sweep = false;
  std::vector<double> dp_sweep;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--records") {
      const char* v = next();
      if (v == nullptr) return 2;
      cfg.records = std::strtoul(v, nullptr, 10);
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr) return 2;
      cfg.batch = std::strtoul(v, nullptr, 10);
    } else if (arg == "--writers") {
      const char* v = next();
      if (v == nullptr) return 2;
      cfg.writers = std::strtoul(v, nullptr, 10);
    } else if (arg == "--readers") {
      const char* v = next();
      if (v == nullptr) return 2;
      cfg.readers = std::strtoul(v, nullptr, 10);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return 2;
      cfg.shards = std::strtoul(v, nullptr, 10);
      if (cfg.shards == 0) return 2;
    } else if (arg == "--snapshot-every" || arg == "--snapshot_every") {
      const char* v = next();
      if (v == nullptr) return 2;
      cfg.snapshot_every = std::strtoul(v, nullptr, 10);
    } else if (arg == "--shard-by" || arg == "--shard_by") {
      const char* v = next();
      if (v == nullptr) return 2;
      auto by = ShardByFromName(v);
      if (!by.ok()) return 2;
      cfg.shard_by = *by;
    } else if (arg == "--sweep") {
      const char* v = next();
      if (v == nullptr) return 2;
      const std::string spec = v;
      size_t start = 0;
      while (start <= spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos) end = spec.size();
        const size_t n =
            std::strtoul(spec.substr(start, end - start).c_str(), nullptr,
                         10);
        if (n == 0) return 2;
        sweep.push_back(n);
        start = end + 1;
      }
    } else if (arg == "--replicas") {
      const char* v = next();
      if (v == nullptr) return 2;
      have_replica_sweep = true;
      const std::string spec = v;
      size_t start = 0;
      while (start <= spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos) end = spec.size();
        replica_sweep.push_back(std::strtoul(
            spec.substr(start, end - start).c_str(), nullptr, 10));
        start = end + 1;
      }
    } else if (arg == "--dp-sweep" || arg == "--dp_sweep") {
      const char* v = next();
      if (v == nullptr) return 2;
      const std::string spec = v;
      size_t start = 0;
      while (start <= spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos) end = spec.size();
        const double epsilon =
            std::strtod(spec.substr(start, end - start).c_str(), nullptr);
        if (!(epsilon > 0.0) || !std::isfinite(epsilon)) return 2;
        dp_sweep.push_back(epsilon);
        start = end + 1;
      }
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return 2;
      json_path = v;
    } else {
      std::cerr << "usage: serve_smoke [--records N] [--batch B] "
                   "[--writers W] [--readers R] [--shards S] "
                   "[--shard-by hash|range] [--snapshot-every E] "
                   "[--sweep \"1,2,4,8\"] "
                   "[--replicas \"0,1,2,4\"] "
                   "[--dp-sweep \"0.1,0.5,1,2\"] [--json PATH]\n";
      return 2;
    }
  }
  if (cfg.batch == 0 || cfg.writers == 0) return 2;

  if (!dp_sweep.empty()) {
    // Privacy/utility sweep: one publication of the standard grid stream,
    // then every epsilon priced against the same exact cells and the same
    // k-anonymous release.
    if (json_path.empty()) json_path = "BENCH_dp.json";
    bench::PrintHeader("serve_smoke — DP release sweep",
                       "noisy-hierarchy build latency and range-query "
                       "error vs epsilon");
    Domain domain;
    domain.lo = {0, 0};
    domain.hi = {100, 100};
    ShardedServiceOptions service_options;
    service_options.service.anonymizer.base_k = 10;
    service_options.service.snapshot_every = 0;
    auto service_or =
        ShardedAnonymizationService::Create(2, domain, service_options);
    if (!service_or.ok()) {
      std::cerr << "service: " << service_or.status() << "\n";
      return 1;
    }
    ShardedAnonymizationService& service = **service_or;
    for (size_t i = 0; i < cfg.records; ++i) {
      const std::vector<double> p = {static_cast<double>(i % 97),
                                     static_cast<double>((i * 7) % 89)};
      if (!service.Ingest(p, static_cast<int32_t>(i % 5)).ok()) return 1;
    }
    const auto stitched = service.PublishNow();
    service.Stop();
    if (stitched == nullptr) return 1;
    size_t height = 0;
    auto cells_or = stitched->SummedDpCells(&height);
    if (!cells_or.ok()) {
      std::cerr << "dp cells: " << cells_or.status() << "\n";
      return 1;
    }
    const DpGrid grid(stitched->domain(), height);
    const PartitionSet kanon =
        stitched->Release(stitched->info().base_k);

    std::string entries;
    for (const double epsilon : dp_sweep) {
      // Median-of-5 builds: each is a full noise + consistency pass over
      // the 2^height-cell hierarchy, the cost a /release/dp cache miss
      // pays.
      std::vector<double> build_ms;
      std::shared_ptr<const DpRelease> release;
      const DpNoiseKey key = DeriveDpNoiseKey("serve-smoke-dp-sweep");
      for (int rep = 0; rep < 5; ++rep) {
        Timer t;
        release = BuildDpRelease(**cells_or, stitched->domain(), height,
                                 epsilon, key);
        build_ms.push_back(t.ElapsedSeconds() * 1000.0);
      }
      std::sort(build_ms.begin(), build_ms.end());
      const double build_median_ms = build_ms[build_ms.size() / 2];
      const DpUtilityReport report =
          EvaluateReleaseUtility(**cells_or, grid, release->counts, kanon);
      std::cout << "epsilon=" << bench::Fmt(epsilon, 2) << ": build "
                << bench::Fmt(build_median_ms, 2) << " ms, dp avg rel err "
                << bench::Fmt(report.dp_avg_rel_error, 4) << " (kanon "
                << bench::Fmt(report.kanon_avg_rel_error, 4) << ") over "
                << report.num_queries << " range queries; noisy total "
                << release->counts.counts[1] << " (exact "
                << stitched->info().records << ")\n";
      if (!entries.empty()) entries += ",\n";
      entries += "    {\"epsilon\": " + std::to_string(epsilon) +
                 ", \"build_ms\": " + std::to_string(build_median_ms) +
                 ", \"dp_avg_rel_error\": " +
                 std::to_string(report.dp_avg_rel_error) +
                 ", \"kanon_avg_rel_error\": " +
                 std::to_string(report.kanon_avg_rel_error) +
                 ", \"num_queries\": " +
                 std::to_string(report.num_queries) +
                 ", \"noisy_records\": " +
                 std::to_string(release->counts.counts[1]) +
                 ", \"exact_records\": " +
                 std::to_string(stitched->info().records) + "}";
    }
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"records\": " << cfg.records << ",\n"
        << "  \"dp_height\": " << height << ",\n"
        << "  \"base_k\": " << stitched->info().base_k << ",\n"
        << "  \"sweep\": [\n"
        << entries << "\n  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
    return 0;
  }

  if (!sweep.empty()) {
    // Shard-scaling sweep: the same record stream at each shard count.
    if (json_path.empty()) json_path = "BENCH_shards.json";
    // Cadence proportional to the run length: the unsharded baseline pays
    // ~5 full-tree rebuilds over the run while an N-shard service rebuilds
    // trees 1/N the size — the amortization the sweep demonstrates.
    if (cfg.snapshot_every == 0) cfg.snapshot_every = cfg.records / 5;
    bench::PrintHeader("serve_smoke — shard scaling sweep",
                       "aggregate ingest throughput per shard count");
    std::string entries;
    double baseline = 0;
    for (const size_t shards : sweep) {
      RunConfig run = cfg;
      run.shards = shards;
      // Client concurrency tracks the shard count so the writers are
      // never the ceiling that hides shard scaling.
      run.writers = std::max(cfg.writers, shards);
      std::cout << "\n== shards=" << shards << " writers=" << run.writers
                << " ==\n";
      const RunResult result = RunOnce(run);
      if (!result.ok) return 1;
      if (baseline == 0) baseline = result.ingest_rec_per_s;
      std::cout << "aggregate ingest: "
                << bench::Fmt(result.ingest_rec_per_s, 0) << " rec/s ("
                << bench::Fmt(result.ingest_rec_per_s / baseline, 2)
                << "x of first sweep point)\n";
      std::string per_shard = "[";
      for (size_t s = 0; s < result.per_shard_inserted.size(); ++s) {
        if (s != 0) per_shard += ", ";
        per_shard += std::to_string(result.per_shard_inserted[s]);
      }
      per_shard += "]";
      if (!entries.empty()) entries += ",\n";
      entries += "    {\"shards\": " + std::to_string(shards) +
                 ", \"writers\": " + std::to_string(run.writers) +
                 ", \"ingest_records_per_second\": " +
                 std::to_string(result.ingest_rec_per_s) +
                 ", \"release_requests_per_second\": " +
                 std::to_string(result.release_req_per_s) +
                 ", \"speedup_vs_first\": " +
                 std::to_string(result.ingest_rec_per_s /
                                std::max(baseline, 1e-9)) +
                 ", \"per_shard_inserted\": " + per_shard + "}";
    }
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"records\": " << cfg.records << ",\n"
        << "  \"batch\": " << cfg.batch << ",\n"
        << "  \"readers\": " << cfg.readers << ",\n"
        << "  \"snapshot_every\": " << cfg.snapshot_every << ",\n"
        << "  \"shard_by\": \"" << ShardByName(cfg.shard_by) << "\",\n"
        << "  \"sweep\": [\n"
        << entries << "\n  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
    return 0;
  }

  if (have_replica_sweep) {
    // Read-scaling sweep: the same ingest workload once per replica count,
    // reads spread across the whole serving set. Frequent publications
    // keep the followers' epoch chase honest — every epoch is a
    // convergence obligation the sweep verifies byte-for-byte at the end.
    if (json_path.empty()) json_path = "BENCH_replicas.json";
    if (cfg.snapshot_every == 0) {
      cfg.snapshot_every = std::max<uint64_t>(cfg.records / 20, 1000);
    }
    bench::PrintHeader("serve_smoke — read replica scaling sweep",
                       "aggregate release QPS and epoch lag per replica "
                       "count");
    std::string entries;
    double baseline = 0;
    for (const size_t replicas : replica_sweep) {
      std::cout << "\n== replicas=" << replicas << " ==\n";
      const ReplicaResult result = RunReplicaPoint(cfg, replicas);
      if (!result.ok) return 1;
      if (baseline == 0) baseline = result.release_req_per_s;
      std::cout << "aggregate release: "
                << bench::Fmt(result.release_req_per_s, 0) << " req/s ("
                << bench::Fmt(result.release_req_per_s / baseline, 2)
                << "x of leader-only)\n";
      if (!entries.empty()) entries += ",\n";
      entries += "    {\"replicas\": " + std::to_string(replicas) +
                 ", \"release_requests_per_second\": " +
                 std::to_string(result.release_req_per_s) +
                 ", \"scaling_vs_leader_only\": " +
                 std::to_string(result.release_req_per_s /
                                std::max(baseline, 1e-9)) +
                 ", \"release\": " +
                 SideJson(result.release, result.release_req_per_s) +
                 ", \"ingest_records_per_second\": " +
                 std::to_string(result.ingest_rec_per_s) +
                 ", \"epoch_lag_p50\": " +
                 std::to_string(result.epoch_lag_p50) +
                 ", \"epoch_lag_p99\": " +
                 std::to_string(result.epoch_lag_p99) +
                 ", \"epoch_lag_max\": " +
                 std::to_string(result.epoch_lag_max) +
                 ", \"repl_bytes\": " + std::to_string(result.repl_bytes) +
                 ", \"reconnects\": " + std::to_string(result.reconnects) +
                 ", \"byte_identical\": " +
                 (result.byte_identical ? "true" : "false") + "}";
    }
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"records\": " << cfg.records << ",\n"
        << "  \"batch\": " << cfg.batch << ",\n"
        << "  \"writers\": " << cfg.writers << ",\n"
        << "  \"snapshot_every\": " << cfg.snapshot_every << ",\n"
        << "  \"sweep\": [\n"
        << entries << "\n  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
    return 0;
  }

  if (json_path.empty()) json_path = "BENCH_serve.json";
  if (cfg.snapshot_every == 0) cfg.snapshot_every = 5000;
  bench::PrintHeader("serve_smoke — loopback HTTP serving throughput",
                     "CI perf smoke (src/net/ ingest + release path)");
  const RunResult result = RunOnce(cfg);
  if (!result.ok) return 1;

  std::ofstream out(json_path);
  out << "{\n"
      << "  \"records\": " << cfg.records << ",\n"
      << "  \"batch\": " << cfg.batch << ",\n"
      << "  \"writers\": " << cfg.writers << ",\n"
      << "  \"readers\": " << cfg.readers << ",\n"
      << "  \"shards\": " << cfg.shards << ",\n"
      << "  \"shard_by\": \"" << ShardByName(cfg.shard_by) << "\",\n"
      << "  \"backend\": \"epoll\",\n"
      << "  \"ingest_records_per_second\": " << result.ingest_rec_per_s
      << ",\n"
      << "  \"release_requests_per_second\": " << result.release_req_per_s
      << ",\n"
      << "  \"ingest\": " << SideJson(result.ingest, result.ingest_rec_per_s)
      << ",\n"
      << "  \"release\": "
      << SideJson(result.release, result.release_req_per_s) << "\n"
      << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
