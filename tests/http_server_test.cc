#include "net/http_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "net/anon_http.h"
#include "net/http_client.h"
#include "net/http_status.h"
#include "service/anonymization_service.h"
#include "shard/sharded_service.h"
#include "http_test_util.h"
#include "scratch_dir.h"

namespace kanon::net {
namespace {

using testutil::ExpectHeadThenGetFramed;
using testutil::ScrapeLatencyHistograms;

Domain SquareDomain(double lo, double hi) {
  Domain d;
  d.lo = {lo, lo};
  d.hi = {hi, hi};
  return d;
}

ServiceOptions SmallServiceOptions(size_t k) {
  ServiceOptions options;
  options.anonymizer.base_k = k;
  options.queue_capacity = 256;
  options.max_batch = 16;
  options.snapshot_every = 0;  // publish on demand
  return options;
}

/// One NDJSON body of `n` grid points in [0,100)^2, ids offset so
/// successive bodies do not collide spatially.
std::string GridBody(size_t n, size_t offset = 0) {
  std::string body;
  for (size_t i = 0; i < n; ++i) {
    const size_t v = offset + i;
    body += std::to_string(v % 97) + "," + std::to_string((v * 7) % 89) +
            "," + std::to_string(v % 5) + "\n";
  }
  return body;
}

struct ServerUnderTest {
  std::unique_ptr<ShardedAnonymizationService> service;
  std::unique_ptr<AnonHttpFrontend> frontend;
  std::unique_ptr<HttpServer> server;
};

ServerUnderTest StartServer(ServiceOptions service_options,
                            size_t num_threads = 2, size_t shards = 1,
                            DpServingOptions frontend_options = {}) {
  ServerUnderTest s;
  ShardedServiceOptions sharded_options;
  sharded_options.service = service_options;
  sharded_options.sharding.num_shards = shards;
  auto service_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), sharded_options);
  EXPECT_TRUE(service_or.ok()) << service_or.status();
  s.service = std::move(*service_or);
  s.frontend =
      std::make_unique<AnonHttpFrontend>(s.service.get(), frontend_options);
  HttpServerOptions options;
  options.port = 0;  // ephemeral
  options.num_threads = num_threads;
  s.server = std::make_unique<HttpServer>(
      options, [f = s.frontend.get()](const HttpRequest& request) {
        return f->Handle(request);
      });
  s.frontend->SetServerStats([srv = s.server.get()] { return srv->stats(); });
  EXPECT_TRUE(s.server->Start().ok());
  return s;
}

HttpClient ConnectTo(const HttpServer& server) {
  HttpClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  return client;
}

TEST(HttpServerTest, LoopbackIngestThenReleaseEndToEnd) {
  ServerUnderTest s = StartServer(SmallServiceOptions(5));
  HttpClient client = ConnectTo(*s.server);

  auto post = client.Post("/ingest", GridBody(40));
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(post->status, 200);
  EXPECT_EQ(post->body, "{\"accepted\":40}");
  EXPECT_EQ(s.frontend->accepted(), 40u);

  const auto snapshot = s.service->PublishNow();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->info().records, 40u);
  EXPECT_EQ(snapshot->info().num_shards, 1u);

  // The HTTP release must be byte-identical to the in-process release
  // serialized through the same deterministic formatter.
  auto get = client.Get("/release/query?k1=8&rids=1");
  ASSERT_TRUE(get.ok()) << get.status();
  ASSERT_EQ(get->status, 200);
  const std::string expected =
      "\"partitions\":" + PartitionsJson(snapshot->Release(8), true);
  EXPECT_NE(get->body.find(expected), std::string::npos)
      << "HTTP release differs from in-process release:\n"
      << get->body << "\nexpected to contain\n"
      << expected;
  EXPECT_NE(get->body.find("\"k1\":8"), std::string::npos);

  // Multigranular coarsening holds over HTTP exactly as in-process: the
  // k1 release is k1-anonymous.
  const PartitionSet inproc = snapshot->Release(8);
  EXPECT_TRUE(inproc.CheckKAnonymous(8).ok());

  // Base release (no k1) matches the snapshot's own granularity.
  auto base = client.Get("/release");
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->status, 200);
  EXPECT_NE(base->body.find("\"k1\":5"), std::string::npos);
  EXPECT_NE(base->body.find("\"shards\":1"), std::string::npos);
  EXPECT_NE(base->body.find("\"shard_epochs\":[1]"), std::string::npos)
      << base->body;

  // Health + metrics round out the read side.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"health\":\"serving\""), std::string::npos);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("kanon_inserted_total 40"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("kanon_build_info{version=\""),
            std::string::npos);
  EXPECT_NE(metrics->body.find("kanon_shards 1"), std::string::npos);
  EXPECT_NE(metrics->body.find("kanon_shard_inserted_total{shard=\"0\"} 40"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("kanon_http_requests_total{endpoint=\"ingest\""
                               ",code=\"200\"} 1"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(
      metrics->body.find("kanon_http_request_latency_ms_bucket"),
      std::string::npos);
}

TEST(HttpServerTest, UnknownRouteIs404AndBadK1Is400) {
  ServerUnderTest s = StartServer(SmallServiceOptions(5));
  HttpClient client = ConnectTo(*s.server);

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_NE(missing->body.find("\"error\":\"NotFound\""), std::string::npos);
  // The 404 lists the route table, prefix routes included.
  EXPECT_NE(missing->body.find("/release/dp/query"), std::string::npos)
      << missing->body;
  EXPECT_NE(missing->body.find("/repl/checkpoint/*"), std::string::npos)
      << missing->body;

  auto bad_k1 = client.Get("/release/query?k1=zero");
  ASSERT_TRUE(bad_k1.ok());
  EXPECT_EQ(bad_k1->status, 400);

  // Every route names one method; any other is 405 with Allow and the
  // shared error body.
  auto wrong_method = client.Get("/ingest");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
  ASSERT_NE(wrong_method->FindHeader("allow"), nullptr);
  EXPECT_EQ(*wrong_method->FindHeader("allow"), "POST");
  EXPECT_NE(wrong_method->body.find("\"error\":\"InvalidArgument\""),
            std::string::npos)
      << wrong_method->body;

  auto post_metrics = client.Post("/metrics", "");
  ASSERT_TRUE(post_metrics.ok());
  EXPECT_EQ(post_metrics->status, 405);
  ASSERT_NE(post_metrics->FindHeader("allow"), nullptr);
  EXPECT_EQ(*post_metrics->FindHeader("allow"), "GET, HEAD");
}

// HEAD answers with the GET's headers and no body, so the keep-alive
// connection stays framed for the next request.
TEST(HttpServerTest, HeadIsFramedWithoutBodyOnKeepAlive) {
  ServerUnderTest s = StartServer(SmallServiceOptions(5));
  ExpectHeadThenGetFramed(s.server->port(), "/healthz");
  // HEAD rides on GET routes only: on POST /ingest it is a 405.
  testutil::RawHttpConnection raw(s.server->port());
  raw.Send("HEAD /ingest HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string& wire = raw.ReadHeaderBlocks(1);
  EXPECT_EQ(wire.rfind("HTTP/1.1 405 ", 0), 0u) << wire;
  EXPECT_EQ(testutil::RawHeader(wire, "Allow"), "POST") << wire;
  // Both /healthz requests count under their route's endpoint.
  HttpClient client = ConnectTo(*s.server);
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("kanon_http_requests_total{endpoint="
                               "\"healthz\",code=\"200\"} 2"),
            std::string::npos)
      << metrics->body;
}

TEST(HttpServerTest, ReleaseBeforeFirstSnapshotIs503WithRetryAfter) {
  ServerUnderTest s = StartServer(SmallServiceOptions(5));
  HttpClient client = ConnectTo(*s.server);
  auto get = client.Get("/release");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->status, 503);
  ASSERT_NE(get->FindHeader("retry-after"), nullptr);
}

TEST(HttpServerTest, MalformedIngestLineIs400WithLineNumber) {
  ServerUnderTest s = StartServer(SmallServiceOptions(5));
  HttpClient client = ConnectTo(*s.server);
  auto post = client.Post("/ingest", "1,2\n3,4\nnot-a-record\n5,6\n");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 400);
  EXPECT_NE(post->body.find("\"line\":3"), std::string::npos) << post->body;
  EXPECT_NE(post->body.find("\"accepted\":2"), std::string::npos);
}

TEST(HttpServerTest, ParserErrorsAnswered400AndConnectionCloses) {
  ServerUnderTest s = StartServer(SmallServiceOptions(5));
  HttpClient client = ConnectTo(*s.server);
  // Hand-roll garbage through the client's socket by abusing Get with a
  // target containing a space — the server's parser must 400 it.
  auto resp = client.Get("/bad target");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 400);
}

TEST(HttpServerTest, RejectBackpressureSurfacesAs429) {
  ServiceOptions options = SmallServiceOptions(3);
  options.backpressure = BackpressureMode::kReject;
  options.queue_capacity = 2;
  options.max_batch = 1;
  options.snapshot_every = 1;  // rebuild the snapshot per record: slow
  ServerUnderTest s = StartServer(options);
  HttpClient client = ConnectTo(*s.server);

  // A large single-connection burst against a 2-slot queue whose consumer
  // rebuilds a snapshot per record must trip kReject -> 429 on some line.
  bool saw_429 = false;
  for (int attempt = 0; attempt < 10 && !saw_429; ++attempt) {
    auto post = client.Post("/ingest", GridBody(500, attempt * 500));
    ASSERT_TRUE(post.ok()) << post.status();
    if (post->status == 429) {
      saw_429 = true;
      EXPECT_NE(post->body.find("\"error\":\"ResourceExhausted\""),
                std::string::npos)
          << post->body;
      EXPECT_NE(post->body.find("\"accepted\":"), std::string::npos);
      ASSERT_NE(post->FindHeader("retry-after"), nullptr);
    } else {
      EXPECT_EQ(post->status, 200);
    }
  }
  EXPECT_TRUE(saw_429)
      << "no 429 in 5000 records against a 2-record queue";
}

TEST(HttpServerTest, StoppedServiceSurfacesAs503AndHealthzFlips) {
  ServerUnderTest s = StartServer(SmallServiceOptions(3));
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(10))->status, 200);
  s.service->Stop();

  auto post = client.Post("/ingest", GridBody(5));
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 503);
  EXPECT_NE(post->body.find("\"error\":\"Unavailable\""), std::string::npos);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 503);
  // Reads survive shutdown: the final snapshot is still served.
  auto release = client.Get("/release");
  ASSERT_TRUE(release.ok());
  EXPECT_EQ(release->status, 200);
}

TEST(HttpServerTest, DegradedServiceSurfacesAs503) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kanon_http_degraded_test")
          .string();
  std::filesystem::remove_all(dir);

  FaultInjectionOptions fault;
  fault.seed = 7;
  // Past the service's own setup I/O (manifest + WAL open) but well short
  // of the stream: the disk dies under live HTTP ingest.
  fault.break_after_ops = 120;
  fault.sync_faults = true;
  FaultInjectionEnv env(Env::Default(), fault);

  ServiceOptions options = SmallServiceOptions(3);
  options.durability.wal_dir = dir;
  options.durability.env = &env;
  options.durability.retry_backoff_ms = 1;
  options.durability.retry_backoff_max_ms = 2;
  ServerUnderTest s = StartServer(options);
  HttpClient client = ConnectTo(*s.server);

  // Keep posting until the broken disk degrades the service; the frontend
  // must answer 503 Unavailable from then on.
  bool saw_503 = false;
  for (int attempt = 0; attempt < 200 && !saw_503; ++attempt) {
    auto post = client.Post("/ingest", GridBody(20, attempt * 20));
    ASSERT_TRUE(post.ok()) << post.status();
    if (post->status == 503) {
      saw_503 = true;
      EXPECT_NE(post->body.find("\"error\":\"Unavailable\""),
                std::string::npos)
          << post->body;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_503) << "service never degraded despite a broken disk";

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 503);
  EXPECT_NE(health->body.find("degraded"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(HttpServerTest, KeepAliveServesManySequentialRequests) {
  ServerUnderTest s = StartServer(SmallServiceOptions(3));
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(10))->status, 200);
  s.service->PublishNow();
  for (int i = 0; i < 50; ++i) {
    auto get = client.Get("/healthz");
    ASSERT_TRUE(get.ok()) << "request " << i << ": " << get.status();
    EXPECT_EQ(get->status, 200);
  }
  // All 51 requests flowed over one connection.
  EXPECT_EQ(s.server->stats().connections_accepted, 1u);
}

TEST(HttpServerTest, ShutdownDrainLosesNoAcknowledgedRecords) {
  ServiceOptions options = SmallServiceOptions(3);
  options.queue_capacity = 64;  // small: writers block mid-drain
  ServerUnderTest s = StartServer(options, /*num_threads=*/4);

  // Writers hammer ingest while the main thread shuts the server down.
  constexpr int kWriters = 3;
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", s.server->port()).ok()) return;
      for (int i = 0; i < 200 && !stop.load(); ++i) {
        auto post = client.Post("/ingest", GridBody(10, w * 10000 + i * 10));
        if (!post.ok()) break;  // connection cut by drain: acceptable
        if (post->status == 200) {
          acked.fetch_add(10);
        } else {
          break;  // 503 during drain: nothing from this batch was acked
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  s.server->Shutdown();  // in-flight requests finish and are acked
  stop.store(true);
  for (std::thread& t : writers) t.join();
  s.service->Stop();  // drains the queue into the final snapshot

  // Every record a client saw a 200 for is in the final snapshot. (The
  // snapshot may hold more: a request cut mid-drain after enqueueing some
  // of its lines was never acked but its lines still landed.)
  const auto stitched = s.service->CurrentStitched();
  ASSERT_NE(stitched, nullptr);
  EXPECT_EQ(s.frontend->accepted(), acked.load());
  EXPECT_GE(stitched->info().records, acked.load());
  EXPECT_EQ(s.service->Stats().total.inserted, stitched->info().records);
}

// The TSan target: concurrent ingest POSTs and release GETs race against
// snapshot publication, across four independently-publishing shards. Run
// under -DKANON_SANITIZE=thread this validates the lock discipline of the
// whole net + shard + service stack.
TEST(HttpServerTest, ConcurrentIngestAndReleaseStress) {
  ServiceOptions options = SmallServiceOptions(4);
  options.snapshot_every = 50;  // publish frequently mid-traffic
  ServerUnderTest s =
      StartServer(options, /*num_threads=*/4, /*shards=*/4);

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kPostsPerWriter = 25;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", s.server->port()).ok());
      for (int i = 0; i < kPostsPerWriter; ++i) {
        auto post =
            client.Post("/ingest", GridBody(20, w * 100000 + i * 20));
        ASSERT_TRUE(post.ok()) << post.status();
        ASSERT_EQ(post->status, 200) << post->body;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", s.server->port()).ok());
      while (!done.load(std::memory_order_relaxed)) {
        auto get = client.Get(r % 2 == 0 ? "/release/query?k1=8&summary=1"
                                         : "/metrics");
        ASSERT_TRUE(get.ok()) << get.status();
        ASSERT_TRUE(get->status == 200 || get->status == 503)
            << get->status;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  const auto snapshot = s.service->PublishNow();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->info().records,
            static_cast<uint64_t>(kWriters * kPostsPerWriter * 20));
  EXPECT_EQ(s.frontend->accepted(),
            static_cast<uint64_t>(kWriters * kPostsPerWriter * 20));
}

TEST(HttpServerTest, EmptyAndBlankIngestBodiesAcceptZero) {
  ServerUnderTest s = StartServer(SmallServiceOptions(3));
  HttpClient client = ConnectTo(*s.server);
  for (const char* body : {"", "\n", "\r\n\n  \n\t\n"}) {
    auto post = client.Post("/ingest", body);
    ASSERT_TRUE(post.ok()) << post.status();
    EXPECT_EQ(post->status, 200) << post->body;
    EXPECT_EQ(post->body, "{\"accepted\":0}");
  }
  EXPECT_EQ(s.frontend->accepted(), 0u);
}

// Sharded routing end-to-end: records spread across both shards, the
// stitched release covers them all, and the k bound holds on the stitch.
TEST(HttpServerTest, TwoShardIngestStitchesBothShards) {
  ServerUnderTest s =
      StartServer(SmallServiceOptions(5), /*num_threads=*/2,
                  /*shards=*/2);
  HttpClient client = ConnectTo(*s.server);
  auto post = client.Post("/ingest", GridBody(200));
  ASSERT_TRUE(post.ok());
  ASSERT_EQ(post->status, 200);

  const auto stitched = s.service->PublishNow();
  ASSERT_NE(stitched, nullptr);
  EXPECT_EQ(stitched->info().records, 200u);
  EXPECT_GT(stitched->info().shard_records[0], 0u);
  EXPECT_GT(stitched->info().shard_records[1], 0u);

  auto get = client.Get("/release");
  ASSERT_TRUE(get.ok());
  ASSERT_EQ(get->status, 200);
  EXPECT_NE(get->body.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(get->body.find("\"records\":200"), std::string::npos);
  EXPECT_TRUE(stitched->Release(5).CheckKAnonymous(5).ok());
}

/// The value of the sample line whose name and labels are `series` (e.g.
/// `kanon_shards` or `kanon_shard_inserted_total{shard="0"}`), or -1 when
/// no such line exists.
double ScrapedValue(const std::string& body, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

// Pins the whole leader exposition surface: every series typed once, in
// one order, with the deterministic counters agreeing between the
// aggregate and the per-shard breakdown.
TEST(HttpServerTest, MetricsExposeEveryServiceSeriesOnce) {
  const testutil::ScratchDir dir;
  ServiceOptions options = SmallServiceOptions(5);
  options.durability.wal_dir = dir.path();
  ServerUnderTest s = StartServer(options, /*num_threads=*/2, /*shards=*/2);
  HttpClient client = ConnectTo(*s.server);
  constexpr size_t kRecords = 200;
  auto post = client.Post("/ingest", GridBody(kRecords));
  ASSERT_TRUE(post.ok()) << post.status();
  ASSERT_EQ(post->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics->status, 200);
  const std::string& body = metrics->body;

  std::vector<std::string> types;
  std::map<std::string, int> typed;
  size_t pos = 0;
  while ((pos = body.find("# TYPE ", pos)) != std::string::npos) {
    const size_t eol = body.find('\n', pos);
    const std::string line = body.substr(pos + 7, eol - pos - 7);
    types.push_back(line);
    ++typed[line.substr(0, line.find(' '))];
    pos = eol;
  }
  const std::vector<std::string> expected = {
      "kanon_build_info gauge",
      "kanon_shards gauge",
      "kanon_enqueued_total counter",
      "kanon_rejected_total counter",
      "kanon_inserted_total counter",
      "kanon_batches_total counter",
      "kanon_snapshots_total counter",
      "kanon_queue_depth gauge",
      "kanon_snapshot_age_seconds gauge",
      "kanon_last_snapshot_build_ms gauge",
      "kanon_durable gauge",
      "kanon_recovered_total counter",
      "kanon_wal_appended_total counter",
      "kanon_wal_bytes_total counter",
      "kanon_wal_syncs_total counter",
      "kanon_wal_synced_lsn gauge",
      "kanon_checkpoints_total counter",
      "kanon_last_checkpoint_lsn gauge",
      "kanon_wal_retries_total counter",
      "kanon_wal_recoveries_total counter",
      "kanon_unavailable_total counter",
      "kanon_dropped_total counter",
      "kanon_wal_poisoned gauge",
      "kanon_snapshot_build_ms_total counter",
      "kanon_publish_blocks_cloned_total counter",
      "kanon_publish_blocks_shared_total counter",
      "kanon_ingest_queue_wait_ms_total counter",
      "kanon_ingest_apply_ms_total counter",
      "kanon_dp_budget gauge",
      "kanon_dp_lifetime_budget gauge",
      "kanon_dp_lifetime_spent gauge",
      "kanon_dp_releases_total counter",
      "kanon_dp_cache_hits_total counter",
      "kanon_dp_rejected_total counter",
      "kanon_dp_evicted_total counter",
      "kanon_dp_budget_spent gauge",
      "kanon_dp_height gauge",
      "kanon_health gauge",
      "kanon_shard_enqueued_total counter",
      "kanon_shard_rejected_total counter",
      "kanon_shard_inserted_total counter",
      "kanon_shard_snapshots_total counter",
      "kanon_shard_recovered_total counter",
      "kanon_shard_wal_appended_total counter",
      "kanon_shard_queue_depth gauge",
      "kanon_shard_degraded gauge",
      "kanon_http_connections_accepted_total counter",
      "kanon_http_connections_refused_total counter",
      "kanon_http_open_connections gauge",
      "kanon_http_parse_errors_total counter",
      "kanon_http_timeouts_total counter",
      "kanon_http_requests_total counter",
      "kanon_http_request_latency_ms histogram",
  };
  EXPECT_EQ(types, expected) << body;
  for (const auto& [name, count] : typed) {
    EXPECT_EQ(count, 1) << name << " is typed " << count << " times";
  }

  for (const std::string& type : expected) {
    const std::string name = type.substr(0, type.find(' '));
    if (!name.starts_with("kanon_shard_")) continue;
    for (const char* shard : {"0", "1"}) {
      EXPECT_GE(ScrapedValue(body, name + "{shard=\"" + shard + "\"}"), 0)
          << name << " has no series for shard " << shard;
    }
  }
  EXPECT_EQ(ScrapedValue(body, "kanon_shards"), 2);
  EXPECT_EQ(ScrapedValue(body, "kanon_durable"), 1);
  EXPECT_EQ(ScrapedValue(body, "kanon_health{state=\"serving\"}"), 1);
  EXPECT_EQ(ScrapedValue(body, "kanon_health{state=\"degraded\"}"), 0);
  EXPECT_EQ(ScrapedValue(body, "kanon_inserted_total"), kRecords);
  EXPECT_EQ(ScrapedValue(body, "kanon_enqueued_total"), kRecords);
  EXPECT_EQ(ScrapedValue(body, "kanon_wal_appended_total"), kRecords);
  EXPECT_EQ(ScrapedValue(body, "kanon_shard_inserted_total{shard=\"0\"}") +
                ScrapedValue(body, "kanon_shard_inserted_total{shard=\"1\"}"),
            kRecords);
  s.service->Stop();
}

// When every shard's disk dies, ingest answers 503 on whichever shard a
// record routes to and /healthz reports the fleet degraded.
TEST(HttpServerTest, AllShardsDegradedSurfacesAs503) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       "kanon_http_all_degraded_test")
          .string();
  std::filesystem::remove_all(dir);

  FaultInjectionOptions fault;
  fault.seed = 11;
  // Past both shards' setup I/O, short of the stream: every durability
  // operation fails once traffic is flowing, so both shards degrade.
  fault.break_after_ops = 260;
  fault.sync_faults = true;
  FaultInjectionEnv env(Env::Default(), fault);

  ServiceOptions options = SmallServiceOptions(3);
  options.durability.wal_dir = dir;
  options.durability.env = &env;
  options.durability.retry_backoff_ms = 1;
  options.durability.retry_backoff_max_ms = 2;
  ServerUnderTest s =
      StartServer(options, /*num_threads=*/2, /*shards=*/2);
  HttpClient client = ConnectTo(*s.server);

  // Alternate points that hash to both shards until every shard has
  // degraded; from then on every ingest line must answer 503.
  for (int attempt = 0; attempt < 400; ++attempt) {
    if (s.service->shard(0)->health() == ServiceHealth::kDegraded &&
        s.service->shard(1)->health() == ServiceHealth::kDegraded) {
      break;
    }
    (void)client.Post("/ingest", GridBody(20, attempt * 20));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(s.service->health(), ServiceHealth::kDegraded);

  auto post = client.Post("/ingest", GridBody(20, 999000));
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 503);
  EXPECT_NE(post->body.find("\"error\":\"Unavailable\""), std::string::npos)
      << post->body;

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 503);
  EXPECT_NE(health->body.find("\"health\":\"degraded\""), std::string::npos);
  EXPECT_NE(health->body.find("\"shards\":[\"degraded\",\"degraded\"]"),
            std::string::npos)
      << health->body;

  std::filesystem::remove_all(dir);
}

// Differential guarantee of the stitched path: a single-shard sharded
// service is byte-identical — over the same deterministic serializer — to
// the plain unsharded service fed the same stream.
TEST(HttpServerTest, SingleShardReleaseMatchesUnshardedByteForByte) {
  ServerUnderTest s = StartServer(SmallServiceOptions(4));
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(150))->status, 200);
  const auto stitched = s.service->PublishNow();
  ASSERT_NE(stitched, nullptr);

  auto unsharded_or = AnonymizationService::Create(2, SquareDomain(0, 100),
                                                   SmallServiceOptions(4));
  ASSERT_TRUE(unsharded_or.ok());
  AnonymizationService& unsharded = **unsharded_or;
  std::vector<double> point(2);
  for (size_t i = 0; i < 150; ++i) {
    point[0] = static_cast<double>(i % 97);
    point[1] = static_cast<double>((i * 7) % 89);
    ASSERT_TRUE(unsharded.Ingest(point, static_cast<int32_t>(i % 5)).ok());
  }
  const auto plain = unsharded.PublishNow();
  ASSERT_NE(plain, nullptr);

  for (const size_t k1 : {size_t{4}, size_t{8}, size_t{32}}) {
    EXPECT_EQ(PartitionsJson(stitched->Release(k1), /*with_rids=*/true),
              PartitionsJson(plain->Release(k1), /*with_rids=*/true))
        << "k1=" << k1;
  }
  unsharded.Stop();
}

// --------------------------------------------------------------------------
// Query-parameter hygiene: unknown or malformed parameters are 400s with an
// error body on every read endpoint, never silently ignored.

TEST(HttpServerTest, UnknownOrMalformedQueryParamsAre400) {
  ServerUnderTest s = StartServer(SmallServiceOptions(4));
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(60))->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);

  const std::vector<std::string> bad_targets = {
      // /release/query: typo'd and unknown keys, malformed flag values.
      "/release/query?k1=8&summery=1",
      "/release/query?epsilon=1",
      "/release/query?k1=8&summary=yes",
      "/release/query?k1=8&rids=2",
      // A repeated key is ambiguous: neither value may silently win.
      "/release/query?k1=8&k1=64",
      "/release/dp?epsilon=1&epsilon=0.1",
      // /release/dp: unknown key, junk epsilon, and the retired client
      // seed parameter (noise now comes only from the server-held key).
      "/release/dp?eps=1",
      "/release/dp?epsilon=0",
      "/release/dp?epsilon=-2",
      "/release/dp?epsilon=abc",
      "/release/dp?epsilon=1&seed=3",
      "/release/dp/query?lo=0,0&hi=9,9&seed=3",
      // /release/dp/query: unknown key, missing/short/unordered bounds.
      "/release/dp/query?lo=0,0&hi=9,9&k1=4",
      "/release/dp/query?epsilon=1",
      "/release/dp/query?lo=0&hi=9,9",
      "/release/dp/query?lo=0,0,0&hi=9,9,9",
      "/release/dp/query?lo=5,5&hi=1,9",
      "/release/dp/query?lo=a,b&hi=9,9",
  };
  for (const std::string& target : bad_targets) {
    auto resp = client.Get(target);
    ASSERT_TRUE(resp.ok()) << target;
    EXPECT_EQ(resp->status, 400) << target << "\n" << resp->body;
    EXPECT_NE(resp->body.find("\"error\":\"InvalidArgument\""),
              std::string::npos)
        << target << "\n" << resp->body;
  }

  // The well-formed spellings of the same requests succeed.
  EXPECT_EQ(client.Get("/release/query?k1=8&summary=1")->status, 200);
  EXPECT_EQ(client.Get("/release/dp?epsilon=1")->status, 200);
  EXPECT_EQ(client.Get("/release/dp/query?lo=0,0&hi=9,9&epsilon=1")->status,
            200);
}

// --------------------------------------------------------------------------
// The DP read path end to end.

TEST(HttpServerTest, DpReleaseServesNoisyHierarchy) {
  DpServingOptions frontend_options;
  frontend_options.key_secret = "test-secret";
  ServerUnderTest s = StartServer(SmallServiceOptions(4),
                                  /*num_threads=*/2, /*shards=*/1,
                                  frontend_options);
  HttpClient client = ConnectTo(*s.server);

  // Nothing published yet: DP reads share the 503-with-Retry-After shape.
  auto early = client.Get("/release/dp");
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->status, 503);
  ASSERT_NE(early->FindHeader("retry-after"), nullptr);

  ASSERT_EQ(client.Post("/ingest", GridBody(200))->status, 200);
  const auto stitched = s.service->PublishNow();
  ASSERT_NE(stitched, nullptr);

  auto dp = client.Get("/release/dp?epsilon=0.8");
  ASSERT_TRUE(dp.ok()) << dp.status();
  ASSERT_EQ(dp->status, 200) << dp->body;
  EXPECT_NE(dp->body.find("\"semantics\":\"dp\""), std::string::npos);
  EXPECT_NE(dp->body.find("\"epsilon\":0.8"), std::string::npos);
  EXPECT_NE(dp->body.find("\"cells\":["), std::string::npos);
  const std::string* epoch = dp->FindHeader("x-kanon-epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(*epoch, std::to_string(stitched->info().epoch));
  // The DP body never names records, partitions, or noise-source material:
  // publishing the seed/key would let a consumer re-derive and subtract
  // the noise.
  EXPECT_EQ(dp->body.find("\"partitions\""), std::string::npos);
  EXPECT_EQ(dp->body.find("\"rids\""), std::string::npos);
  EXPECT_EQ(dp->body.find("seed"), std::string::npos);
  EXPECT_EQ(dp->body.find("key"), std::string::npos);

  // Memoized: the repeat is byte-identical and served from cache.
  auto again = client.Get("/release/dp?epsilon=0.8");
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->status, 200);
  EXPECT_EQ(again->body, dp->body);
  EXPECT_GE(s.frontend->dp_ledger().cache_hits(), 1u);

  // The HTTP body equals the in-process release built from the summed
  // cells under the same derived key — one serializer, one noise path.
  size_t height = 0;
  auto cells_or = stitched->SummedDpCells(&height);
  ASSERT_TRUE(cells_or.ok()) << cells_or.status();
  const auto inproc = BuildDpRelease(**cells_or, stitched->domain(), height,
                                     0.8, DeriveDpNoiseKey("test-secret"));
  EXPECT_EQ(dp->body, inproc->body);

  // Range queries answer from the hierarchy; the full domain returns the
  // noisy total, and the count field parses as a number.
  auto range =
      client.Get("/release/dp/query?lo=0,0&hi=100,100&epsilon=0.8");
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range->status, 200) << range->body;
  const std::string want_count =
      "\"count\":" + std::to_string(inproc->counts.counts[1]);
  EXPECT_NE(range->body.find(want_count), std::string::npos)
      << range->body << "\nexpected " << want_count;
}

TEST(HttpServerTest, DpBudgetExhaustionIs429AndMemoizedReadsStayFree) {
  DpServingOptions frontend_options;
  frontend_options.budget = 1.0;
  ServerUnderTest s = StartServer(SmallServiceOptions(4),
                                  /*num_threads=*/2, /*shards=*/1,
                                  frontend_options);
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(80))->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);

  ASSERT_EQ(client.Get("/release/dp?epsilon=0.6")->status, 200);

  // A second distinct draw would spend 0.6 + 0.7 > 1.0: typed 429, not
  // silent truncation — and it burns nothing.
  auto over = client.Get("/release/dp?epsilon=0.7");
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over->status, 429) << over->body;
  EXPECT_NE(over->body.find("\"error\":\"ResourceExhausted\""),
            std::string::npos)
      << over->body;
  ASSERT_NE(over->FindHeader("retry-after"), nullptr);

  // The memoized release (and its range queries) keep serving for free.
  EXPECT_EQ(client.Get("/release/dp?epsilon=0.6")->status, 200);
  EXPECT_EQ(
      client.Get("/release/dp/query?lo=0,0&hi=50,50&epsilon=0.6")->status,
      200);
  EXPECT_EQ(s.frontend->dp_ledger().rejected(), 1u);

  // A fresh publication is a fresh release point with a fresh budget.
  ASSERT_EQ(client.Post("/ingest", GridBody(80, 1000))->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);
  EXPECT_EQ(client.Get("/release/dp?epsilon=0.7")->status, 200);
}

TEST(HttpServerTest, DpDisabledAnswers409) {
  ServiceOptions options = SmallServiceOptions(4);
  options.dp_height = 0;  // DP cell accounting off
  ServerUnderTest s = StartServer(options);
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(40))->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);

  auto dp = client.Get("/release/dp");
  ASSERT_TRUE(dp.ok());
  EXPECT_EQ(dp->status, 409) << dp->body;
  EXPECT_NE(dp->body.find("\"error\":\"FailedPrecondition\""),
            std::string::npos)
      << dp->body;
}

TEST(HttpServerTest, MetricsExposeDpCountersAndOptInUtilityPair) {
  DpServingOptions frontend_options;
  frontend_options.utility_in_metrics = true;  // trusted scrape plane
  ServerUnderTest s = StartServer(SmallServiceOptions(4),
                                  /*num_threads=*/2, /*shards=*/1,
                                  frontend_options);
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(120))->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);
  ASSERT_EQ(client.Get("/release/dp?epsilon=1")->status, 200);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  for (const std::string& series : {
           std::string("kanon_dp_budget "),
           std::string("kanon_dp_budget_spent 1"),
           std::string("kanon_dp_lifetime_budget"),
           std::string("kanon_dp_lifetime_spent 1"),
           std::string("kanon_dp_releases_total 1"),
           std::string("kanon_dp_cache_hits_total"),
           std::string("kanon_dp_rejected_total 0"),
           std::string("kanon_dp_evicted_total 0"),
           std::string("kanon_dp_height"),
           std::string("kanon_release_utility_queries"),
           std::string("kanon_release_avg_range_error{semantics=\"kanon\"}"),
           std::string("kanon_release_avg_range_error{semantics=\"dp\"}"),
       }) {
    EXPECT_NE(metrics->body.find(series), std::string::npos)
        << "missing " << series << " in\n"
        << metrics->body;
  }
  EXPECT_NE(metrics->body.find(
                "kanon_http_requests_total{endpoint=\"dp\",code=\"200\"}"),
            std::string::npos)
      << metrics->body;
}

// By default the truth-derived utility pair stays off /metrics: it is
// computed from exact counts, so on an untrusted scrape plane it would be
// an un-noised, un-charged side channel.
TEST(HttpServerTest, MetricsOmitTruthDerivedUtilityPairByDefault) {
  ServerUnderTest s = StartServer(SmallServiceOptions(4));
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(120))->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);
  ASSERT_EQ(client.Get("/release/dp?epsilon=1")->status, 200);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("kanon_dp_budget "), std::string::npos);
  EXPECT_EQ(metrics->body.find("kanon_release_utility_queries"),
            std::string::npos)
      << metrics->body;
  EXPECT_EQ(metrics->body.find("kanon_release_avg_range_error"),
            std::string::npos)
      << metrics->body;
}

// The acceptance criterion over HTTP: servers configured with the same
// noise-key secret produce a byte-identical DP body for the same record
// multiset at 1, 2 and 4 shards (partition releases cannot promise this —
// shard routing changes the trees — but the DP grid is data-independent).
TEST(HttpServerTest, DpReleaseByteIdenticalAcrossShardCounts) {
  DpServingOptions frontend_options;
  frontend_options.key_secret = "deployment-secret";
  std::vector<std::string> bodies;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ServerUnderTest s = StartServer(SmallServiceOptions(4),
                                    /*num_threads=*/2, shards,
                                    frontend_options);
    HttpClient client = ConnectTo(*s.server);
    ASSERT_EQ(client.Post("/ingest", GridBody(240))->status, 200);
    ASSERT_NE(s.service->PublishNow(), nullptr);
    auto dp = client.Get("/release/dp?epsilon=0.9");
    ASSERT_TRUE(dp.ok());
    ASSERT_EQ(dp->status, 200) << "shards=" << shards << "\n" << dp->body;
    bodies.push_back(dp->body);
  }
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_EQ(bodies[0], bodies[2]);

  // A server with a different secret draws different noise: the body
  // cannot be predicted without the key.
  frontend_options.key_secret = "other-secret";
  ServerUnderTest other = StartServer(SmallServiceOptions(4),
                                      /*num_threads=*/2, /*shards=*/1,
                                      frontend_options);
  HttpClient client = ConnectTo(*other.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(240))->status, 200);
  ASSERT_NE(other.service->PublishNow(), nullptr);
  auto dp = client.Get("/release/dp?epsilon=0.9");
  ASSERT_TRUE(dp.ok());
  ASSERT_EQ(dp->status, 200);
  EXPECT_NE(dp->body, bodies[0]);
}

/// The latency histogram follows the Prometheus exposition format: fixed
/// `le` bounds (identical across scrapes and endpoints), monotonic
/// cumulative buckets, and a +Inf bucket equal to _count.
TEST(HttpServerTest, LatencyHistogramBucketsAreFixedAcrossScrapes) {
  ServerUnderTest s = StartServer(SmallServiceOptions(5));
  HttpClient client = ConnectTo(*s.server);
  ASSERT_EQ(client.Post("/ingest", GridBody(60))->status, 200);
  ASSERT_NE(s.service->PublishNow(), nullptr);
  ASSERT_EQ(client.Get("/release/query?k1=10&summary=1")->status, 200);
  ASSERT_EQ(client.Get("/healthz")->status, 200);
  auto first = client.Get("/metrics");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200);

  // More traffic of different cost between the scrapes.
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(client.Post("/ingest", GridBody(200, 1000 * (i + 1)))->status,
              200);
    ASSERT_EQ(client.Get("/release/query?k1=20")->status, 200);
  }
  ASSERT_EQ(client.Get("/nope")->status, 404);
  auto second = client.Get("/metrics");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200);

  const auto a = ScrapeLatencyHistograms(first->body);
  const auto b = ScrapeLatencyHistograms(second->body);
  ASSERT_TRUE(a.count("ingest") && a.count("release")) << first->body;
  ASSERT_TRUE(b.count("ingest") && b.count("release") && b.count("metrics"))
      << second->body;
  const std::vector<std::string>& les = b.at("ingest").les;
  ASSERT_GE(les.size(), 2u);
  EXPECT_EQ(les.back(), "+Inf");
  for (const auto* scrape : {&a, &b}) {
    for (const auto& [endpoint, h] : *scrape) {
      EXPECT_EQ(h.les, les) << endpoint;
      ASSERT_TRUE(h.has_count) << endpoint;
      ASSERT_FALSE(h.buckets.empty()) << endpoint;
      for (size_t i = 1; i < h.buckets.size(); ++i) {
        EXPECT_LE(h.buckets[i - 1], h.buckets[i])
            << endpoint << " le=" << h.les[i];
      }
      EXPECT_EQ(h.buckets.back(), h.count) << endpoint;
    }
  }
  EXPECT_EQ(b.at("ingest").count, a.at("ingest").count + 5);
  EXPECT_EQ(b.at("release").count, a.at("release").count + 5);
  s.service->Stop();
}

TEST(HttpServerTest, SerializeResponseFramesBody) {
  HttpResponse resp = HttpResponse::Json(200, "{\"x\":1}");
  const std::string wire = SerializeResponse(resp, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"x\":1}"), std::string::npos);

  HttpResponse err = HttpResponse::FromStatus(Status::Unavailable("x"));
  EXPECT_EQ(err.status, 503);
  const std::string closed = SerializeResponse(err, /*keep_alive=*/false);
  EXPECT_NE(closed.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(closed.find("Connection: close\r\n"), std::string::npos);
}

// Handlers always run on the worker pool, never on the event loop: a
// server without a handler thread does not start.
TEST(HttpServerTest, ZeroHandlerThreadsIsInvalidArgument) {
  HttpServerOptions options;
  options.num_threads = 0;
  HttpServer server(options, [](const HttpRequest&) {
    return HttpResponse::Json(200, "{}");
  });
  EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kanon::net
