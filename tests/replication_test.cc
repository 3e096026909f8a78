// Replication protocol tests: WAL range reads and frame decoding, client
// timeout/retry hardening, the leader's /repl endpoints, and loopback
// leader+follower end-to-end — including byte-identical releases, leader
// restart with automatic reconnect, checkpoint bootstrap, WAL-GC-driven
// re-bootstrap, and staleness-degraded health.

#include "net/replication.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "durability/wal.h"
#include "net/anon_http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "shard/sharded_service.h"
#include "storage/page.h"
#include "http_test_util.h"
#include "scratch_dir.h"

namespace kanon::net {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectHeadThenGetFramed;
using testutil::ScrapeLatencyHistograms;
using testutil::ScratchDir;

struct Entry {
  uint64_t lsn;
  std::vector<double> point;
  int32_t sensitive;
};

/// Writes `n` deterministic entries (dim 2) and fsyncs.
void WriteWal(const std::string& dir, uint64_t n, size_t segment_bytes) {
  WalOptions options;
  options.fsync_every = 0;
  options.segment_bytes = segment_bytes;
  auto wal = WalWriter::Open(dir, 2, /*next_lsn=*/1, options);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (uint64_t lsn = 1; lsn <= n; ++lsn) {
    const std::vector<double> p = {static_cast<double>(lsn % 97),
                                   static_cast<double>((lsn * 7) % 89)};
    ASSERT_TRUE((*wal)->Append(lsn, p, static_cast<int32_t>(lsn % 5)).ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());
}

std::vector<Entry> Decode(std::string_view frames, Status* status) {
  std::vector<Entry> entries;
  *status = DecodeWalFrames(
      frames, 2,
      [&](uint64_t lsn, std::span<const double> point, int32_t sensitive) {
        entries.push_back({lsn, {point.begin(), point.end()}, sensitive});
      });
  return entries;
}

TEST(ReadWalRangeTest, MidLogStartAndLsnCap) {
  ScratchDir dir;
  WriteWal(dir.path(), 100, /*segment_bytes=*/1024);
  auto range = ReadWalRange(dir.path(), 2, /*from_lsn=*/41, /*max_lsn=*/100,
                            /*max_bytes=*/1u << 20);
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_EQ(range->first_lsn, 41u);
  EXPECT_EQ(range->last_lsn, 100u);
  Status status;
  const auto entries = Decode(range->frames, &status);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(entries.size(), 60u);
  EXPECT_EQ(entries.front().lsn, 41u);
  EXPECT_EQ(entries.back().lsn, 100u);
  EXPECT_EQ(entries.front().point[0], 41.0);

  // The cap is inclusive and exact.
  range = ReadWalRange(dir.path(), 2, 1, /*max_lsn=*/60, 1u << 20);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->last_lsn, 60u);

  // from_lsn beyond the cap: empty, not an error (the caught-up poll).
  range = ReadWalRange(dir.path(), 2, 101, 100, 1u << 20);
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_TRUE(range->frames.empty());
  EXPECT_EQ(range->first_lsn, 0u);
  EXPECT_EQ(range->last_lsn, 0u);
}

TEST(ReadWalRangeTest, MaxBytesBatchesAndResumes) {
  ScratchDir dir;
  WriteWal(dir.path(), 100, 1024);
  // Tiny budget: every batch still makes progress (>= 1 entry), and
  // resuming from last_lsn + 1 walks the whole log without gaps or dups.
  uint64_t next = 1;
  size_t batches = 0;
  while (next <= 100) {
    auto range = ReadWalRange(dir.path(), 2, next, 100, /*max_bytes=*/64);
    ASSERT_TRUE(range.ok()) << range.status();
    ASSERT_GT(range->last_lsn, 0u) << "no progress at lsn " << next;
    ASSERT_EQ(range->first_lsn, next);
    Status status;
    const auto entries = Decode(range->frames, &status);
    ASSERT_TRUE(status.ok());
    ASSERT_FALSE(entries.empty());
    EXPECT_EQ(entries.back().lsn, range->last_lsn);
    next = range->last_lsn + 1;
    ++batches;
  }
  EXPECT_GT(batches, 10u);  // the budget actually bit
}

TEST(ReadWalRangeTest, GcdPrefixIsTypedNotFound) {
  ScratchDir dir;
  WriteWal(dir.path(), 200, /*segment_bytes=*/512);  // many small segments
  auto removed = TruncateWalBefore(dir.path(), /*checkpoint_lsn=*/100);
  ASSERT_TRUE(removed.ok());
  ASSERT_GT(*removed, 0u);

  // The GC'd prefix is a typed NotFound — the "need a new checkpoint"
  // signal — not a 500-shaped corruption.
  auto range = ReadWalRange(dir.path(), 2, 1, 200, 1u << 20);
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kNotFound);

  // The surviving suffix still reads fine.
  auto ok_range = ReadWalRange(dir.path(), 2, 101, 200, 1u << 20);
  ASSERT_TRUE(ok_range.ok()) << ok_range.status();
  EXPECT_EQ(ok_range->last_lsn, 200u);
  EXPECT_LE(ok_range->oldest_lsn, 101u);
}

TEST(ReadWalRangeTest, TornTailOnNewestSegmentIsNeverShipped) {
  ScratchDir dir;
  WriteWal(dir.path(), 50, 1u << 20);
  // Append garbage to the newest (only) segment — a torn in-flight write.
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    files.push_back(e.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::app);
    out.write("\x13\x37\xde\xad\xbe", 5);
  }
  auto range = ReadWalRange(dir.path(), 2, 1, 50, 1u << 20);
  ASSERT_TRUE(range.ok()) << range.status();
  EXPECT_EQ(range->last_lsn, 50u);
  Status status;
  const auto entries = Decode(range->frames, &status);
  EXPECT_TRUE(status.ok()) << status;  // the garbage never made the wire
  EXPECT_EQ(entries.size(), 50u);
}

TEST(ReadWalRangeTest, SealedSegmentDamageIsCorruption) {
  ScratchDir dir;
  WriteWal(dir.path(), 200, /*segment_bytes=*/512);
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GT(files.size(), 2u);
  {
    // Flip one payload byte mid-file in a sealed (non-newest) segment.
    std::fstream f(files[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(40);
    char c = 0;
    f.read(&c, 1);
    f.seekp(40);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  auto range = ReadWalRange(dir.path(), 2, 1, 200, 1u << 20);
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kCorruption);
}

TEST(DecodeWalFramesTest, CrcDamageStopsDeliveryAtTheBadFrame) {
  ScratchDir dir;
  WriteWal(dir.path(), 20, 1u << 20);
  auto range = ReadWalRange(dir.path(), 2, 1, 20, 1u << 20);
  ASSERT_TRUE(range.ok());
  std::string frames = range->frames;
  // Damage a payload byte somewhere past the first few frames.
  frames[frames.size() / 2] = static_cast<char>(frames[frames.size() / 2] ^ 1);
  Status status;
  const auto entries = Decode(frames, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // Only the clean prefix was delivered, in order, starting at 1.
  ASSERT_FALSE(entries.empty());
  EXPECT_LT(entries.size(), 20u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].lsn, i + 1);
  }
}

TEST(HttpClientHardeningTest, ReadTimeoutAgainstSilentServer) {
  // A socket that listens but never accepts: connects succeed via the
  // backlog, then the response never comes. The bounded client must
  // surface an IoError instead of hanging.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, /*timeout_s=*/0.3).ok());
  const auto start = std::chrono::steady_clock::now();
  auto resp = client.Get("/healthz");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kIoError);
  EXPECT_LT(elapsed, 5.0);  // bounded, not hung
  ::close(fd);
}

TEST(RetryAfterTest, FromStatusAttachesRetryAfterOn429And503) {
  for (const Status& status :
       {Status::Unavailable("degraded"),
        Status::ResourceExhausted("queue full")}) {
    const HttpResponse resp = HttpResponse::FromStatus(status);
    bool found = false;
    for (const auto& [name, value] : resp.headers) {
      if (name == "Retry-After") found = true;
    }
    EXPECT_TRUE(found) << "no Retry-After on " << resp.status;
  }
  // And not on other errors.
  const HttpResponse not_found =
      HttpResponse::FromStatus(Status::NotFound("x"));
  EXPECT_TRUE(not_found.headers.empty());
}

// ---------------------------------------------------------------------------
// Leader endpoint + follower end-to-end fixtures.

struct Leader {
  std::unique_ptr<ShardedAnonymizationService> service;
  std::unique_ptr<AnonHttpFrontend> frontend;
  std::unique_ptr<HttpServer> server;

  uint16_t port() const { return server->port(); }
};

Domain SquareDomain() {
  Domain d;
  d.lo = {0, 0};
  d.hi = {100, 100};
  return d;
}

Leader StartLeader(const std::string& wal_dir, size_t k = 5,
                   uint64_t checkpoint_every = 100000,
                   size_t segment_bytes = 16u << 20, uint16_t port = 0,
                   DpServingOptions frontend_options = {},
                   uint64_t snapshot_every = 0, size_t shards = 1) {
  Leader leader;
  ShardedServiceOptions options;
  options.sharding.num_shards = shards;
  options.service.anonymizer.base_k = k;
  options.service.queue_capacity = 512;
  options.service.max_batch = 32;
  options.service.snapshot_every = snapshot_every;  // 0: publish on demand
  options.service.durability.wal_dir = wal_dir;
  options.service.durability.fsync_every = 8;
  options.service.durability.checkpoint_every = checkpoint_every;
  options.service.durability.segment_bytes = segment_bytes;
  auto service_or =
      ShardedAnonymizationService::Create(2, SquareDomain(), options);
  KANON_CHECK(service_or.ok());
  leader.service = std::move(*service_or);
  leader.frontend = std::make_unique<AnonHttpFrontend>(leader.service.get(),
                                                       frontend_options);
  HttpServerOptions http;
  http.port = port;
  http.num_threads = 2;
  leader.server = std::make_unique<HttpServer>(
      http, [f = leader.frontend.get()](const HttpRequest& request) {
        return f->Handle(request);
      });
  KANON_CHECK(leader.server->Start().ok());
  return leader;
}

/// Ingests `n` grid records directly (not over HTTP — these tests exercise
/// the replication path, not the ingest path) and publishes.
void IngestAndPublish(Leader& leader, size_t n, size_t offset = 0) {
  for (size_t i = 0; i < n; ++i) {
    const size_t v = offset + i;
    const std::vector<double> p = {static_cast<double>(v % 97),
                                   static_cast<double>((v * 7) % 89)};
    ASSERT_TRUE(
        leader.service->Ingest(p, static_cast<int32_t>(v % 5)).ok());
  }
  ASSERT_NE(leader.service->PublishNow(), nullptr);
}

FollowerOptions FastFollowerOptions(uint16_t leader_port) {
  FollowerOptions options;
  options.leader_port = leader_port;
  options.poll_interval_ms = 5;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 100;
  options.jitter_seed = 42;
  options.request_timeout_s = 2.0;
  return options;
}

/// Spins until `pred` holds (or fails the test after `timeout_s`).
void WaitFor(const std::function<bool()>& pred, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "condition not reached in " << timeout_s << "s";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// A follower's HTTP face on an ephemeral port, with the listener counters
/// wired into /metrics the way `kanon_cli serve --follow` wires them.
struct FollowerServer {
  std::unique_ptr<FollowerFrontend> frontend;
  std::unique_ptr<HttpServer> server;

  uint16_t port() const { return server->port(); }
};

FollowerServer ServeFollower(ReplicatedFollower* follower) {
  FollowerServer served;
  served.frontend = std::make_unique<FollowerFrontend>(follower);
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 2;
  served.server = std::make_unique<HttpServer>(
      http, [f = served.frontend.get()](const HttpRequest& request) {
        return f->Handle(request);
      });
  served.frontend->SetServerStats(
      [srv = served.server.get()] { return srv->stats(); });
  KANON_CHECK(served.server->Start().ok());
  return served;
}

std::string Fetch(uint16_t port, const std::string& target,
                  int* status = nullptr) {
  HttpClient client;
  KANON_CHECK(client.Connect("127.0.0.1", port, 5.0).ok());
  auto resp = client.Get(target);
  KANON_CHECK(resp.ok());
  if (status != nullptr) *status = resp->status;
  return std::move(resp->body);
}

TEST(ReplEndpointsTest, ManifestReportsLeaderStateAnd409WithoutDurability) {
  ScratchDir dir;
  Leader leader = StartLeader(dir.path());
  IngestAndPublish(leader, 60);
  int status = 0;
  const std::string body = Fetch(leader.port(), "/repl/manifest", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"dim\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"base_k\":5"), std::string::npos) << body;
  EXPECT_NE(body.find("\"durable_lsn\":60"), std::string::npos) << body;
  EXPECT_NE(body.find("\"epoch\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"epoch_records\":60"), std::string::npos) << body;
  leader.service->Stop();

  // Without --wal-dir there is nothing to replicate from: typed 409.
  Leader bare = StartLeader("");
  status = 0;
  (void)Fetch(bare.port(), "/repl/manifest", &status);
  EXPECT_EQ(status, 409);
  bare.service->Stop();
}

// The manifest no longer carries the retired ingest-tier key, and a
// follower still parses a manifest from an older leader that does.
TEST(ReplEndpointsTest, ManifestDropsRetiredKeyAndFollowerToleratesIt) {
  ScratchDir dir;
  Leader leader = StartLeader(dir.path());
  IngestAndPublish(leader, 60);
  const std::string body = Fetch(leader.port(), "/repl/manifest");
  EXPECT_EQ(body.find("\"lsm\""), std::string::npos) << body;
  leader.service->Stop();

  const size_t at = body.find(",\"dp_height\"");
  ASSERT_NE(at, std::string::npos) << body;
  const std::string older =
      body.substr(0, at) + ",\"lsm\":0" + body.substr(at);
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 1;
  HttpServer canned(http, [&older](const HttpRequest&) {
    return HttpResponse::Json(200, older);
  });
  ASSERT_TRUE(canned.Start().ok());
  ReplicationClient client("127.0.0.1", canned.port(), 5.0);
  auto manifest = client.FetchManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->dim, 2u);
  EXPECT_EQ(manifest->base_k, 5u);
  EXPECT_EQ(manifest->dp_height, 10u);
  EXPECT_EQ(manifest->durable_lsn, 60u);
  EXPECT_EQ(manifest->epoch, 1u);
  EXPECT_EQ(manifest->epoch_records, 60u);
  canned.Shutdown();
}

// An older leader's manifest still names the shard it describes and the
// compaction flag; both are retired, so the codec no longer writes them and
// skips them as unknown keys when decoding. A new follower therefore still
// bootstraps from an old leader.
TEST(ReplEndpointsTest, ManifestWithRetiredShardAndCompactKeysDecodes) {
  LeaderManifest m;
  m.shards = 1;
  m.dim = 2;
  m.base_k = 5;
  m.leaf_capacity_factor = 2;
  m.max_fanout = 16;
  m.dp_height = 10;
  m.durable_lsn = 500;
  m.epoch = 3;
  m.epoch_records = 480;
  const std::string body = EncodeLeaderManifest(m);
  EXPECT_EQ(body.find("\"shard\":"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"compact\":"), std::string::npos) << body;

  const std::string older =
      "{\"shards\":1,\"shard\":0,\"dim\":2,\"base_k\":5,"
      "\"leaf_capacity_factor\":2,\"max_fanout\":16,\"compact\":1,"
      "\"dp_height\":10,\"durable_lsn\":500,\"epoch\":3,"
      "\"epoch_records\":480,\"checkpoint_lsn\":0}";
  const auto decoded = DecodeLeaderManifest(older);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(EncodeLeaderManifest(*decoded), body);
}

/// A stand-in leader on an ephemeral port that answers with `handler`.
std::unique_ptr<HttpServer> ServeCanned(HttpHandler handler) {
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 1;
  auto server = std::make_unique<HttpServer>(http, std::move(handler));
  KANON_CHECK(server->Start().ok());
  return server;
}

// A known manifest key that is missing or not a decimal number is
// Corruption, never a silent default: a follower that guessed the leader's
// dp_height or crc32 would serve releases that diverge from the leader's.
TEST(ReplEndpointsTest, FetchManifestRejectsMissingOrNonNumericKnownKeys) {
  ScratchDir dir;
  Leader leader = StartLeader(dir.path(), 5, /*checkpoint_every=*/64,
                              /*segment_bytes=*/512);
  IngestAndPublish(leader, 300);
  std::string body;
  WaitFor([&] {
    body = Fetch(leader.port(), "/repl/manifest");
    return body.find("\"crc32\":") != std::string::npos;
  });
  leader.service->Stop();

  // Cuts the first `"key":value` member (with its leading comma) out of
  // `json`, or replaces its value.
  const auto edit = [](std::string json, const std::string& key,
                       const std::string* value) {
    const size_t at = json.find(",\"" + key + "\":");
    KANON_CHECK(at != std::string::npos);
    const size_t end = json.find_first_of(",}", at + 1);
    return json.substr(0, at) +
           (value == nullptr ? "" : ",\"" + key + "\":" + *value) +
           json.substr(end);
  };
  const std::string quoted_five = "\"5\"";
  for (const std::string& broken :
       {edit(body, "dp_height", nullptr),
        edit(body, "base_k", &quoted_five),
        edit(body, "crc32", nullptr)}) {
    SCOPED_TRACE(broken);
    const auto canned = ServeCanned([&broken](const HttpRequest&) {
      return HttpResponse::Json(200, broken);
    });
    ReplicationClient client("127.0.0.1", canned->port(), 5.0);
    const auto manifest = client.FetchManifest();
    ASSERT_FALSE(manifest.ok());
    EXPECT_EQ(manifest.status().code(), StatusCode::kCorruption);
    canned->Shutdown();
  }
}

TEST(ReplEndpointsTest, WalEndpointShipsDecodableFramesWithHeaders) {
  ScratchDir dir;
  Leader leader = StartLeader(dir.path());
  IngestAndPublish(leader, 40);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", leader.port(), 5.0).ok());
  auto resp = client.Get("/repl/wal?from_lsn=1&max_bytes=1048576");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  EXPECT_EQ(*resp->FindHeader("x-kanon-first-lsn"), "1");
  EXPECT_EQ(*resp->FindHeader("x-kanon-last-lsn"), "40");
  EXPECT_EQ(*resp->FindHeader("x-kanon-durable-lsn"), "40");
  EXPECT_EQ(*resp->FindHeader("x-kanon-epoch"), "1");
  EXPECT_EQ(*resp->FindHeader("x-kanon-epoch-records"), "40");
  Status status;
  const auto entries = Decode(resp->body, &status);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(entries.size(), 40u);
  EXPECT_EQ(entries.front().lsn, 1u);
  EXPECT_EQ(entries.back().lsn, 40u);

  // Bad requests are typed, not 500s.
  resp = client.Get("/repl/wal");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 400);
  resp = client.Get("/repl/checkpoint/999");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 410);  // no checkpoint yet: re-fetch the manifest
  resp = client.Get("/repl/wal?from_lsn=1&shard=9");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 400);
  leader.service->Stop();
}

TEST(ReplEndpointsTest, MalformedOrUnknownQueryParamsAre400) {
  ScratchDir dir;
  Leader leader = StartLeader(dir.path());
  IngestAndPublish(leader, 20);
  for (const std::string target :
       {"/repl/wal?from_lsn=1&max_bytes=abc",
        "/repl/wal?from_lsn=1&max_bytes=0",
        "/repl/wal?from_lsn=1&max_lsn=-1",
        "/repl/wal?from_lsn=1&max_lsn=7x",
        "/repl/wal?from_lsn=1&bogus=1",
        "/repl/wal?from_lsn=1&from_lsn=5",
        "/repl/manifest?bogus=1",
        "/repl/checkpoint/1?from_lsn=1",
        // The retired per-shard addressing is an unknown key like any other.
        "/repl/wal?from_lsn=1&shard=0",
        "/repl/manifest?shard=0"}) {
    int status = 0;
    const std::string body = Fetch(leader.port(), target, &status);
    EXPECT_EQ(status, 400) << target << ": " << body;
  }
  // The keys the follower sends (ReplicationClient::FetchWal) stay valid.
  int status = 0;
  (void)Fetch(leader.port(),
              "/repl/wal?from_lsn=1&max_lsn=20&max_bytes=1048576", &status);
  EXPECT_EQ(status, 200);
  leader.service->Stop();
}

TEST(ReplEndpointsTest, GcdWalRangeIs410OverHttp) {
  ScratchDir dir;
  // Small segments + frequent checkpoints: ingesting enough rotates and
  // then GCs the early WAL segments.
  Leader leader = StartLeader(dir.path(), 5, /*checkpoint_every=*/64,
                              /*segment_bytes=*/512);
  IngestAndPublish(leader, 300);
  // The checkpoint + WAL truncation happen on the writer thread right
  // after the publish ticket is released, so poll rather than fetch once.
  int status = 0;
  WaitFor([&] {
    (void)Fetch(leader.port(), "/repl/wal?from_lsn=1", &status);
    return status == 410;
  });
  // And the manifest now names a checkpoint to bootstrap from instead.
  const std::string body = Fetch(leader.port(), "/repl/manifest", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.find("\"checkpoint_lsn\":0"), std::string::npos) << body;
  leader.service->Stop();
}

TEST(ReplicationE2eTest, FollowerConvergesToByteIdenticalRelease) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path());
  IngestAndPublish(leader, 80);

  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(leader.port()));
  follower.Start();
  WaitFor([&] { return follower.epoch() >= 1; });
  WaitFor([&] {
    return follower.state() == ReplState::kFollowing &&
           follower.fresh();
  });
  EXPECT_EQ(follower.applied_lsn(), 80u);

  // The follower's own HTTP face serves the same bytes as the leader's.
  FollowerFrontend frontend(&follower);
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 2;
  HttpServer server(http, [&frontend](const HttpRequest& request) {
    return frontend.Handle(request);
  });
  ASSERT_TRUE(server.Start().ok());
  for (const std::string target :
       {"/release", "/release/query?k1=10", "/release/query?k1=7&rids=1"}) {
    SCOPED_TRACE(target);
    EXPECT_EQ(Fetch(leader.port(), target), Fetch(server.port(), target));
  }

  // More records + a new epoch: the follower catches up incrementally.
  IngestAndPublish(leader, 40, /*offset=*/80);
  WaitFor([&] { return follower.epoch() >= 2; });
  EXPECT_EQ(Fetch(leader.port(), "/release"), Fetch(server.port(), "/release"));

  // Write redirection and health.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), 5.0).ok());
  auto post = client.Post("/ingest", "1,2,3\n");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 421);
  const std::string* location = post->FindHeader("location");
  ASSERT_NE(location, nullptr);
  EXPECT_NE(location->find(std::to_string(leader.port())),
            std::string::npos);
  int status = 0;
  (void)Fetch(server.port(), "/healthz", &status);
  EXPECT_EQ(status, 200);
  const std::string metrics = Fetch(server.port(), "/metrics", &status);
  EXPECT_NE(metrics.find("kanon_repl_state{state=\"following\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("kanon_repl_applied_lsn 120"), std::string::npos);

  server.Shutdown();
  follower.Stop();
  leader.service->Stop();
}

// Replicas under write load: two followers tail a leader that publishes
// every 200 records while HTTP writers post and a reader polls a replica.
// Publication points therefore land mid-traffic, not only at quiescent
// PublishNow calls. Once ingest stops and the leader publishes, every
// replica must reach the leader's (epoch, records) point and serve the
// byte-identical release.
TEST(ReplicationE2eTest, FollowersConvergeUnderConcurrentIngest) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path(), 5, /*checkpoint_every=*/100000,
                              /*segment_bytes=*/16u << 20, /*port=*/0,
                              /*frontend_options=*/{},
                              /*snapshot_every=*/200);
  constexpr int kFollowers = 2;
  std::vector<std::unique_ptr<ReplicatedFollower>> followers;
  std::vector<FollowerServer> served;
  for (int f = 0; f < kFollowers; ++f) {
    followers.push_back(std::make_unique<ReplicatedFollower>(
        SquareDomain(), FastFollowerOptions(leader.port())));
    followers.back()->Start();
    served.push_back(ServeFollower(followers.back().get()));
  }

  constexpr int kWriters = 2;
  constexpr int kPostsPerWriter = 30;
  constexpr size_t kBatch = 50;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", leader.port(), 5.0).ok());
      for (int i = 0; i < kPostsPerWriter; ++i) {
        std::string body;
        for (size_t j = 0; j < kBatch; ++j) {
          const size_t v = w * 100000 + i * kBatch + j;
          body += std::to_string(v % 97) + "," +
                  std::to_string((v * 7) % 89) + "," +
                  std::to_string(v % 5) + "\n";
        }
        auto post = client.Post("/ingest", body);
        ASSERT_TRUE(post.ok()) << post.status();
        ASSERT_EQ(post->status, 200) << post->body;
      }
    });
  }
  std::thread reader([&] {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", served[0].port(), 5.0).ok());
    while (!done.load(std::memory_order_relaxed)) {
      auto get = client.Get("/release/query?k1=10&summary=1");
      ASSERT_TRUE(get.ok()) << get.status();
      // 503 until the replica's first publication.
      ASSERT_TRUE(get->status == 200 || get->status == 503) << get->status;
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const auto published = leader.service->PublishNow();
  ASSERT_NE(published, nullptr);
  const StitchedInfo info = published->info();
  EXPECT_EQ(info.records, uint64_t{kWriters * kPostsPerWriter * kBatch});
  EXPECT_GE(info.epoch, 10u);
  for (const auto& follower : followers) {
    WaitFor([&] {
      return follower->epoch() == info.epoch &&
             follower->published_records() == info.records;
    });
  }
  for (const std::string target :
       {"/release", "/release/query?k1=10&rids=1"}) {
    SCOPED_TRACE(target);
    const std::string expected = Fetch(leader.port(), target);
    for (const FollowerServer& replica : served) {
      EXPECT_EQ(Fetch(replica.port(), target), expected);
    }
  }

  for (FollowerServer& replica : served) replica.server->Shutdown();
  for (const auto& follower : followers) follower->Stop();
  leader.service->Stop();
}

// The DP acceptance criterion across replication: at the leader's
// publication point the follower serves the *byte-identical* DP release —
// same grid (dp_height pinned via the manifest), same cells (same record
// multiset), same noise (pure function of (epsilon, shared noise-key
// secret)) — and answers range queries and budget rejections through the
// same DpServing path.
TEST(ReplicationE2eTest, FollowerServesByteIdenticalDpRelease) {
  ScratchDir wal;
  DpServingOptions leader_frontend;
  leader_frontend.key_secret = "replicated-secret";
  Leader leader = StartLeader(wal.path(), /*k=*/5,
                              /*checkpoint_every=*/100000,
                              /*segment_bytes=*/16u << 20, /*port=*/0,
                              leader_frontend);
  IngestAndPublish(leader, 90);

  FollowerOptions options = FastFollowerOptions(leader.port());
  options.dp.budget = 1.0;
  options.dp.key_secret = "replicated-secret";
  options.dp.utility_in_metrics = true;
  ReplicatedFollower follower(SquareDomain(), options);
  follower.Start();
  WaitFor([&] { return follower.epoch() >= 1; });

  FollowerFrontend frontend(&follower);
  HttpServerOptions http;
  http.port = 0;
  http.num_threads = 2;
  HttpServer server(http, [&frontend](const HttpRequest& request) {
    return frontend.Handle(request);
  });
  ASSERT_TRUE(server.Start().ok());

  for (const std::string target :
       {"/release/dp?epsilon=0.6",
        "/release/dp/query?lo=10,10&hi=60,80&epsilon=0.6"}) {
    SCOPED_TRACE(target);
    int leader_status = 0;
    int follower_status = 0;
    const std::string leader_body =
        Fetch(leader.port(), target, &leader_status);
    const std::string follower_body =
        Fetch(server.port(), target, &follower_status);
    EXPECT_EQ(leader_status, 200) << leader_body;
    EXPECT_EQ(follower_status, 200) << follower_body;
    EXPECT_EQ(leader_body, follower_body);
  }

  // The follower enforces its own budget ledger: a second distinct draw
  // past its 1.0 budget is a typed 429 with the DP counters in /metrics.
  int status = 0;
  (void)Fetch(server.port(), "/release/dp?epsilon=0.7", &status);
  EXPECT_EQ(status, 429);
  const std::string metrics = Fetch(server.port(), "/metrics", &status);
  EXPECT_NE(metrics.find("kanon_dp_rejected_total 1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("kanon_dp_releases_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("kanon_release_avg_range_error{semantics=\"dp\"}"),
            std::string::npos);

  // The next publication point is again byte-identical once caught up.
  IngestAndPublish(leader, 30, /*offset=*/90);
  WaitFor([&] { return follower.epoch() >= 2; });
  EXPECT_EQ(Fetch(leader.port(), "/release/dp?epsilon=0.5"),
            Fetch(server.port(), "/release/dp?epsilon=0.5"));

  server.Shutdown();
  follower.Stop();
  leader.service->Stop();
}

TEST(ReplicationE2eTest, FollowerBootstrapsFromCheckpointThenTails) {
  ScratchDir wal;
  // Frequent checkpoints + tiny segments: by 300 records the WAL prefix is
  // gone and a follower MUST use the checkpoint (WAL-only would 410).
  Leader leader = StartLeader(wal.path(), 5, /*checkpoint_every=*/64,
                              /*segment_bytes=*/512);
  IngestAndPublish(leader, 300);

  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(leader.port()));
  follower.Start();
  WaitFor([&] { return follower.epoch() >= 1; });
  EXPECT_EQ(follower.applied_lsn(), 300u);
  EXPECT_GE(follower.bootstraps(), 1u);
  EXPECT_EQ(Fetch(leader.port(), "/release/query?k1=12&rids=1"),
            [&] {
              FollowerFrontend frontend(&follower);
              HttpRequest request;
              request.method = "GET";
              request.path = "/release/query";
              request.query = "k1=12&rids=1";
              return frontend.Handle(request).body;
            }());
  follower.Stop();
  leader.service->Stop();
}

TEST(ReplicationE2eTest, FollowerReBootstrapsWhenTailedRangeIsGcd) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path(), 5, /*checkpoint_every=*/64,
                              /*segment_bytes=*/512);
  IngestAndPublish(leader, 80);

  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(leader.port()));
  follower.Start();
  WaitFor([&] { return follower.epoch() >= 1; });
  const uint64_t bootstraps_before = follower.bootstraps();

  // Pile on enough records to checkpoint + GC the segments the follower
  // already consumed, then keep going: if its position is ever truncated
  // away it re-bootstraps without operator action.
  IngestAndPublish(leader, 400, /*offset=*/80);
  WaitFor([&] { return follower.published_records() == 480u; });
  EXPECT_EQ(Fetch(leader.port(), "/release"), [&] {
    FollowerFrontend frontend(&follower);
    HttpRequest request;
    request.method = "GET";
    request.path = "/release";
    return frontend.Handle(request).body;
  }());
  // (The re-bootstrap is opportunistic: it only triggers if the poll gap
  // spanned the GC. Either way the follower converged; when it did
  // re-bootstrap the counter says so.)
  EXPECT_GE(follower.bootstraps(), bootstraps_before);
  follower.Stop();
  leader.service->Stop();
}

TEST(ReplicationE2eTest, FollowerReconnectsAfterLeaderRestartOnSamePort) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path());
  IngestAndPublish(leader, 60);
  const uint16_t port = leader.port();

  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(port));
  follower.Start();
  WaitFor([&] { return follower.epoch() >= 1; });

  // Leader goes away; the follower keeps serving its snapshot and enters
  // reconnect backoff.
  leader.server->Shutdown();
  leader.service->Stop();
  leader.server.reset();
  leader.frontend.reset();
  leader.service.reset();
  WaitFor([&] { return follower.state() == ReplState::kDisconnected; });
  EXPECT_NE(follower.CurrentStitched(), nullptr);

  // Same port, same WAL dir: recovery brings the records back, the
  // follower reconnects by itself and resumes from its applied LSN. The
  // revived leader's epoch counter renumbers from 1 (it is in-memory) —
  // the follower must still republish, keying on (epoch, records).
  Leader revived = StartLeader(wal.path(), 5, 100000, 16u << 20, port);
  IngestAndPublish(revived, 30, /*offset=*/60);
  WaitFor([&] { return follower.applied_lsn() == 90u; });
  WaitFor([&] { return follower.published_records() == 90u; });
  EXPECT_GE(follower.reconnects(), 1u);
  EXPECT_EQ(Fetch(revived.port(), "/release"), [&] {
    FollowerFrontend frontend(&follower);
    HttpRequest request;
    request.method = "GET";
    request.path = "/release";
    return frontend.Handle(request).body;
  }());
  follower.Stop();
  revived.service->Stop();
}

TEST(ReplicationE2eTest, StalenessDegradesHealthAndOptionallyRejectsReads) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path());
  IngestAndPublish(leader, 40);

  FollowerOptions options = FastFollowerOptions(leader.port());
  options.max_staleness_ms = 200;  // tight bound for the test
  options.reject_stale_reads = true;
  ReplicatedFollower follower(SquareDomain(), options);
  follower.Start();
  WaitFor([&] { return follower.epoch() >= 1; });

  FollowerFrontend frontend(&follower);
  HttpRequest release;
  release.method = "GET";
  release.path = "/release";
  {
    const HttpResponse resp = frontend.Handle(release);
    EXPECT_EQ(resp.status, 200);
    bool found = false;
    for (const auto& [name, value] : resp.headers) {
      if (name == "X-Kanon-Staleness-Ms") {
        found = true;
        EXPECT_NE(value, "-1");
      }
    }
    EXPECT_TRUE(found);
  }

  // Kill the leader; once the bound lapses the follower reports itself
  // degraded and (with --stale-reads=reject) refuses reads with a 503
  // that carries Retry-After.
  leader.server->Shutdown();
  leader.service->Stop();
  WaitFor([&] { return !follower.fresh(); });
  {
    HttpRequest healthz;
    healthz.method = "GET";
    healthz.path = "/healthz";
    const HttpResponse resp = frontend.Handle(healthz);
    EXPECT_EQ(resp.status, 503);
    bool retry_after = false;
    for (const auto& [name, value] : resp.headers) {
      if (name == "Retry-After") retry_after = true;
    }
    EXPECT_TRUE(retry_after);
    EXPECT_NE(resp.body.find("\"status\":\"degraded\""), std::string::npos);
  }
  {
    const HttpResponse resp = frontend.Handle(release);
    EXPECT_EQ(resp.status, 503);
  }
  const HttpRequest metrics_req = [] {
    HttpRequest r;
    r.method = "GET";
    r.path = "/metrics";
    return r;
  }();
  const std::string metrics = frontend.Handle(metrics_req).body;
  EXPECT_NE(metrics.find("kanon_repl_reconnects_total"), std::string::npos);
  follower.Stop();
}

// A sharded leader is refused: shard 0 alone would be served as if it were
// the whole release. The follower publishes nothing and stays unhealthy.
TEST(ReplicationE2eTest, FollowerRefusesShardedLeader) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path(), 5, /*checkpoint_every=*/100000,
                              /*segment_bytes=*/16u << 20, /*port=*/0,
                              /*frontend_options=*/{}, /*snapshot_every=*/0,
                              /*shards=*/2);
  IngestAndPublish(leader, 200);

  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(leader.port()));
  follower.Start();
  FollowerServer served = ServeFollower(&follower);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(follower.epoch(), 0u);
  EXPECT_EQ(follower.CurrentStitched(), nullptr);
  EXPECT_NE(follower.state(), ReplState::kFollowing);
  int status = 0;
  (void)Fetch(served.port(), "/healthz", &status);
  EXPECT_EQ(status, 503);
  served.server->Shutdown();
  follower.Stop();
  leader.service->Stop();
}

// A /repl/wal 200 without its X-Kanon-* headers is a transport fault, not a
// zero leader horizon: the follower must not report itself caught up.
TEST(ReplicationE2eTest, FollowerTreatsHeaderlessWalAnswerAsFault) {
  const auto canned = ServeCanned([](const HttpRequest& request) {
    if (request.path == "/repl/manifest") {
      return HttpResponse::Json(
          200,
          "{\"shards\":1,\"dim\":2,\"base_k\":5,"
          "\"leaf_capacity_factor\":2,\"max_fanout\":16,"
          "\"dp_height\":10,\"durable_lsn\":500,\"epoch\":3,"
          "\"epoch_records\":500,\"checkpoint_lsn\":0}");
    }
    HttpResponse empty;
    empty.status = 200;
    empty.content_type = "application/octet-stream";
    return empty;
  });
  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(canned->port()));
  follower.Start();
  FollowerServer served = ServeFollower(&follower);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_NE(follower.state(), ReplState::kFollowing);
  int status = 0;
  (void)Fetch(served.port(), "/healthz", &status);
  EXPECT_EQ(status, 503);
  served.server->Shutdown();
  follower.Stop();
  canned->Shutdown();
}

// A checkpoint download with one flipped byte fails LoadTree's CRC check:
// the follower adopts nothing, publishes nothing and stays unhealthy.
TEST(ReplicationE2eTest, FollowerRefusesCorruptCheckpoint) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path(), 5, /*checkpoint_every=*/64,
                              /*segment_bytes=*/512);
  IngestAndPublish(leader, 300);
  // Checkpoints are taken in the background: wait for the manifest to
  // name one.
  std::string manifest;
  StatusOr<LeaderManifest> decoded = Status::NotFound("no manifest yet");
  WaitFor([&] {
    manifest = Fetch(leader.port(), "/repl/manifest");
    decoded = DecodeLeaderManifest(manifest);
    return decoded.ok() && decoded->checkpoint_lsn > 0;
  });
  std::string checkpoint = Fetch(
      leader.port(),
      "/repl/checkpoint/" + std::to_string(decoded->checkpoint_lsn));
  // Flip the last byte of the tree stream (part of the last leaf's points,
  // never zero padding): pages hold a PageId link, then payload.
  const size_t page_size = decoded->checkpoint.page_size;
  const size_t payload = page_size - sizeof(PageId);
  const size_t last = decoded->checkpoint.snapshot.byte_size - 1;
  const size_t at =
      last / payload * page_size + sizeof(PageId) + last % payload;
  ASSERT_LT(at, checkpoint.size());
  checkpoint[at] ^= 0x01;
  const auto canned = ServeCanned([&](const HttpRequest& request) {
    if (request.path == "/repl/manifest") {
      return HttpResponse::Json(200, manifest);
    }
    HttpResponse download;
    download.status = 200;
    download.content_type = "application/octet-stream";
    download.body = checkpoint;
    return download;
  });
  ReplicatedFollower follower(SquareDomain(),
                              FastFollowerOptions(canned->port()));
  follower.Start();
  FollowerServer served = ServeFollower(&follower);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(follower.epoch(), 0u);
  EXPECT_EQ(follower.bootstraps(), 0u);
  int status = 0;
  (void)Fetch(served.port(), "/healthz", &status);
  EXPECT_EQ(status, 503);
  served.server->Shutdown();
  follower.Stop();
  canned->Shutdown();
  leader.service->Stop();
}

// The follower shares the leader's route policy: a 404 in the shared error
// shape that lists the table, 405 with Allow for a wrong method, and 421
// with Location only for POST /ingest. The replication thread never runs;
// routing needs none of it.
TEST(ReplicationE2eTest, FollowerUnknownRouteIs404AndWrongMethodIs405) {
  ReplicatedFollower follower(SquareDomain(),
                              FastFollowerOptions(9));
  FollowerServer served = ServeFollower(&follower);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served.port(), 5.0).ok());

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_NE(missing->body.find("\"error\":\"NotFound\""), std::string::npos)
      << missing->body;
  EXPECT_NE(missing->body.find("/release/dp/query"), std::string::npos)
      << missing->body;

  auto get_ingest = client.Get("/ingest");
  ASSERT_TRUE(get_ingest.ok());
  EXPECT_EQ(get_ingest->status, 405);
  ASSERT_NE(get_ingest->FindHeader("allow"), nullptr);
  EXPECT_EQ(*get_ingest->FindHeader("allow"), "POST");
  EXPECT_NE(get_ingest->body.find("\"error\":\"InvalidArgument\""),
            std::string::npos)
      << get_ingest->body;

  auto post_release = client.Post("/release", "");
  ASSERT_TRUE(post_release.ok());
  EXPECT_EQ(post_release->status, 405);
  ASSERT_NE(post_release->FindHeader("allow"), nullptr);
  EXPECT_EQ(*post_release->FindHeader("allow"), "GET, HEAD");

  auto post_ingest = client.Post("/ingest", "1,2,3\n");
  ASSERT_TRUE(post_ingest.ok());
  EXPECT_EQ(post_ingest->status, 421);
  EXPECT_NE(post_ingest->FindHeader("location"), nullptr);
}

TEST(ReplicationE2eTest, FollowerHeadIsFramedWithoutBodyOnKeepAlive) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path());
  IngestAndPublish(leader, 40);
  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(leader.port()));
  follower.Start();
  WaitFor([&] {
    return follower.state() == ReplState::kFollowing &&
           follower.fresh();
  });
  FollowerServer served = ServeFollower(&follower);
  ExpectHeadThenGetFramed(served.port(), "/healthz");
  ExpectHeadThenGetFramed(served.port(), "/release/query?k1=10");
  served.server->Shutdown();
  follower.Stop();
  leader.service->Stop();
}

// The follower's /metrics carries the same request accounting as the
// leader's, from the shared Router: build info, listener counters,
// per-endpoint request counts and a fixed-bucket latency histogram.
TEST(ReplicationE2eTest, FollowerMetricsExposeFixedLatencyHistogram) {
  ScratchDir wal;
  Leader leader = StartLeader(wal.path());
  IngestAndPublish(leader, 60);
  ReplicatedFollower follower(
      SquareDomain(), FastFollowerOptions(leader.port()));
  follower.Start();
  WaitFor([&] { return follower.epoch() >= 1; });
  FollowerServer served = ServeFollower(&follower);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served.port(), 5.0).ok());
  ASSERT_EQ(client.Get("/release/query?k1=10&summary=1")->status, 200);
  auto first = client.Get("/metrics");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(client.Get("/release?bogus=1")->status, 400);
    ASSERT_EQ(client.Get("/release")->status, 200);
  }
  ASSERT_EQ(client.Get("/nope")->status, 404);
  auto second = client.Get("/metrics");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200);
  ASSERT_NE(second->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*second->FindHeader("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");

  const auto a = ScrapeLatencyHistograms(first->body);
  const auto b = ScrapeLatencyHistograms(second->body);
  ASSERT_TRUE(a.count("release")) << first->body;
  ASSERT_TRUE(b.count("release") && b.count("metrics") && b.count("other"))
      << second->body;
  const std::vector<std::string>& les = b.at("release").les;
  ASSERT_GE(les.size(), 2u);
  EXPECT_EQ(les.back(), "+Inf");
  for (const auto* scrape : {&a, &b}) {
    for (const auto& [endpoint, h] : *scrape) {
      EXPECT_EQ(h.les, les) << endpoint;
      ASSERT_TRUE(h.has_count) << endpoint;
      ASSERT_FALSE(h.buckets.empty()) << endpoint;
      EXPECT_EQ(h.buckets.back(), h.count) << endpoint;
    }
  }
  EXPECT_EQ(b.at("release").count, a.at("release").count + 8);

  for (const std::string series : {
           "kanon_build_info{version=\"",
           "kanon_http_requests_total{endpoint=\"release\",code=\"200\"} 5",
           "kanon_http_requests_total{endpoint=\"release\",code=\"400\"} 4",
           "kanon_http_requests_total{endpoint=\"other\",code=\"404\"} 1",
           "kanon_http_connections_accepted_total",
           "kanon_http_open_connections",
           "kanon_repl_applied_lsn 60",
       }) {
    EXPECT_NE(second->body.find(series), std::string::npos)
        << "missing " << series << " in\n"
        << second->body;
  }
  served.server->Shutdown();
  follower.Stop();
  leader.service->Stop();
}

}  // namespace
}  // namespace kanon::net
