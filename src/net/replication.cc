#include "net/replication.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/env.h"
#include "durability/wal.h"
#include "net/http_status.h"

namespace kanon::net {

const char* ReplStateName(ReplState state) {
  switch (state) {
    case ReplState::kBootstrapping: return "bootstrapping";
    case ReplState::kFollowing: return "following";
    case ReplState::kLagging: return "lagging";
    case ReplState::kDisconnected: return "disconnected";
  }
  return "unknown";
}

namespace {

/// Bytes of WAL frames asked for per /repl/wal poll (the leader clamps
/// larger asks to its own cap).
constexpr size_t kMaxBatchBytes = 1u << 20;

/// Extracts the number following `"key":` in a flat JSON object emitted by
/// our own serializer (no whitespace, unique keys). Returns `fallback`
/// when the key is absent.
uint64_t JsonU64(const std::string& body, const std::string& key,
                 uint64_t fallback = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

std::string JsonStr(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = body.find('"', begin);
  if (end == std::string::npos) return "";
  return body.substr(begin, end - begin);
}

uint64_t HeaderU64(const ClientResponse& resp, std::string_view name) {
  const std::string* v = resp.FindHeader(name);
  if (v == nullptr) return 0;
  return std::strtoull(v->c_str(), nullptr, 10);
}

std::string ErrorMessage(const ClientResponse& resp) {
  const std::string msg = JsonStr(resp.body, "message");
  return msg.empty() ? ("HTTP " + std::to_string(resp.status)) : msg;
}

}  // namespace

ReplicationClient::ReplicationClient(std::string host, uint16_t port,
                                     size_t shard, double timeout_s)
    : host_(std::move(host)),
      port_(port),
      shard_(shard),
      timeout_s_(timeout_s) {}

StatusOr<ClientResponse> ReplicationClient::Fetch(const std::string& target) {
  if (!client_.connected()) {
    KANON_RETURN_IF_ERROR(client_.Connect(host_, port_, timeout_s_));
  }
  return client_.Get(target);
}

StatusOr<LeaderManifest> ReplicationClient::FetchManifest() {
  KANON_ASSIGN_OR_RETURN(
      ClientResponse resp,
      Fetch("/repl/manifest?shard=" + std::to_string(shard_)));
  if (resp.status != 200) {
    return Status::Unavailable("leader /repl/manifest: " +
                               ErrorMessage(resp));
  }
  const std::string& body = resp.body;
  LeaderManifest m;
  m.shards = JsonU64(body, "shards", 1);
  m.shard = JsonU64(body, "shard");
  m.dim = JsonU64(body, "dim");
  m.base_k = JsonU64(body, "base_k");
  m.leaf_capacity_factor = JsonU64(body, "leaf_capacity_factor", 2);
  m.max_fanout = JsonU64(body, "max_fanout", 16);
  m.compact = JsonU64(body, "compact", 1) != 0;
  m.dp_height = JsonU64(body, "dp_height", 10);
  m.durable_lsn = JsonU64(body, "durable_lsn");
  m.epoch = JsonU64(body, "epoch");
  m.epoch_records = JsonU64(body, "epoch_records");
  m.checkpoint_lsn = JsonU64(body, "checkpoint_lsn");
  if (m.dim == 0 || m.base_k == 0) {
    return Status::Corruption("leader manifest missing dim/base_k: " + body);
  }
  if (m.checkpoint_lsn > 0) {
    m.checkpoint.dim = m.dim;
    m.checkpoint.checkpoint_lsn = m.checkpoint_lsn;
    m.checkpoint.file = JsonStr(body, "file");
    m.checkpoint.page_size = JsonU64(body, "page_size");
    m.checkpoint.min_leaf = JsonU64(body, "min_leaf");
    m.checkpoint.max_leaf = JsonU64(body, "max_leaf");
    m.checkpoint.max_fanout = JsonU64(body, "max_fanout");
    m.checkpoint.snapshot.first_page = JsonU64(body, "first_page");
    m.checkpoint.snapshot.byte_size = JsonU64(body, "byte_size");
    m.checkpoint.snapshot.record_count = JsonU64(body, "record_count");
    m.checkpoint.snapshot.crc32 =
        static_cast<uint32_t>(JsonU64(body, "crc32"));
    if (m.checkpoint.file.empty() || m.checkpoint.page_size == 0) {
      return Status::Corruption("leader manifest checkpoint malformed: " +
                                body);
    }
  }
  return m;
}

StatusOr<std::string> ReplicationClient::FetchCheckpoint(uint64_t lsn) {
  KANON_ASSIGN_OR_RETURN(
      ClientResponse resp,
      Fetch("/repl/checkpoint/" + std::to_string(lsn) +
            "?shard=" + std::to_string(shard_)));
  if (resp.status == 410) {
    return Status::NotFound("leader checkpoint " + std::to_string(lsn) +
                            " superseded: " + ErrorMessage(resp));
  }
  if (resp.status != 200) {
    return Status::Unavailable("leader /repl/checkpoint: " +
                               ErrorMessage(resp));
  }
  bytes_total_.fetch_add(resp.body.size(), std::memory_order_relaxed);
  return std::move(resp.body);
}

StatusOr<WalBatch> ReplicationClient::FetchWal(uint64_t from_lsn,
                                               uint64_t max_lsn) {
  KANON_ASSIGN_OR_RETURN(
      ClientResponse resp,
      Fetch("/repl/wal?shard=" + std::to_string(shard_) +
            "&from_lsn=" + std::to_string(from_lsn) +
            "&max_lsn=" + std::to_string(max_lsn) +
            "&max_bytes=" + std::to_string(kMaxBatchBytes)));
  if (resp.status == 410) {
    return Status::NotFound("leader WAL range gone: " + ErrorMessage(resp));
  }
  if (resp.status != 200) {
    return Status::Unavailable("leader /repl/wal: " + ErrorMessage(resp));
  }
  WalBatch batch;
  batch.first_lsn = HeaderU64(resp, "x-kanon-first-lsn");
  batch.last_lsn = HeaderU64(resp, "x-kanon-last-lsn");
  batch.durable_lsn = HeaderU64(resp, "x-kanon-durable-lsn");
  batch.epoch = HeaderU64(resp, "x-kanon-epoch");
  batch.epoch_records = HeaderU64(resp, "x-kanon-epoch-records");
  batch.frames = std::move(resp.body);
  bytes_total_.fetch_add(batch.frames.size(), std::memory_order_relaxed);
  return batch;
}

ReplicatedFollower::ReplicatedFollower(Domain domain, FollowerOptions options)
    : options_(std::move(options)),
      core_(std::make_unique<FollowerCore>(domain.dim(), std::move(domain),
                                           options_.core)),
      client_(options_.leader_host, options_.leader_port, options_.shard,
              options_.request_timeout_s) {
  jitter_state_ = options_.jitter_seed != 0
                      ? options_.jitter_seed
                      : static_cast<uint64_t>(
                            std::chrono::steady_clock::now()
                                .time_since_epoch()
                                .count()) |
                            1;
}

ReplicatedFollower::~ReplicatedFollower() { Stop(); }

void ReplicatedFollower::Start() {
  thread_ = std::thread([this] { RunLoop(); });
}

void ReplicatedFollower::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool ReplicatedFollower::SleepFor(uint64_t ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(ms),
               [this] { return stopping_; });
  return !stopping_;
}

void ReplicatedFollower::Backoff() {
  uint64_t delay = options_.backoff_initial_ms;
  const uint64_t doublings =
      consecutive_failures_ > 1 ? consecutive_failures_ - 1 : 0;
  for (uint64_t i = 0; i < doublings && delay < options_.backoff_max_ms;
       ++i) {
    delay *= 2;
  }
  if (delay > options_.backoff_max_ms) delay = options_.backoff_max_ms;
  // xorshift64* jitter in [0.75, 1.0): a fleet of replicas that lost the
  // same leader at the same instant must not retry in lockstep.
  jitter_state_ ^= jitter_state_ << 13;
  jitter_state_ ^= jitter_state_ >> 7;
  jitter_state_ ^= jitter_state_ << 17;
  const double unit =
      static_cast<double>(jitter_state_ % 1000000) / 1000000.0;
  delay = static_cast<uint64_t>(static_cast<double>(delay) *
                                (0.75 + 0.25 * unit));
  if (delay == 0) delay = 1;
  SleepFor(delay);
}

void ReplicatedFollower::OnTransportFault(const Status& status) {
  (void)status;
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  ++consecutive_failures_;
  client_.Disconnect();
  SetState(ReplState::kDisconnected);
}

bool ReplicatedFollower::BootstrapOnce() {
  SetState(ReplState::kBootstrapping);
  auto manifest_or = client_.FetchManifest();
  if (!manifest_or.ok()) {
    OnTransportFault(manifest_or.status());
    return false;
  }
  const LeaderManifest& m = *manifest_or;
  if (m.dim != core_->dim()) {
    // A config error, not a transient: keep retrying (the operator may
    // repoint --follow), but say why.
    std::fprintf(stderr,
                 "repl: leader dim %zu != follower domain dim %zu; "
                 "check --domain\n",
                 m.dim, core_->dim());
    ++consecutive_failures_;
    return false;
  }
  core_->ConfigureFromLeader(m.base_k, m.leaf_capacity_factor, m.max_fanout,
                             m.compact, m.dp_height);
  if (m.checkpoint_lsn > 0) {
    auto bytes_or = client_.FetchCheckpoint(m.checkpoint_lsn);
    if (!bytes_or.ok()) {
      if (bytes_or.status().code() == StatusCode::kNotFound) {
        // GC'd between manifest and download: re-fetch the manifest on the
        // next round — resumable bootstrap, not an error loop.
        ++consecutive_failures_;
        return false;
      }
      OnTransportFault(bytes_or.status());
      return false;
    }
    const std::string path =
        options_.scratch_dir + "/follower-checkpoint-" +
        std::to_string(m.checkpoint_lsn) + ".db";
    Env* env = Env::Default();
    Status wrote = [&]() -> Status {
      (void)env->CreateDirs(options_.scratch_dir);
      KANON_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             env->NewWritableFile(path, /*truncate=*/true));
      KANON_RETURN_IF_ERROR(
          file->Append(bytes_or->data(), bytes_or->size()));
      return file->Close();
    }();
    if (wrote.ok()) {
      // AdoptCheckpoint CRC-verifies the download against the manifest
      // before any page is trusted.
      wrote = core_->AdoptCheckpoint(m.checkpoint, path);
    }
    (void)env->RemoveFile(path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "repl: checkpoint adoption failed: %s\n",
                   wrote.ToString().c_str());
      core_->ResetForBootstrap();
      ++consecutive_failures_;
      return false;
    }
  }
  leader_durable_lsn_.store(m.durable_lsn, std::memory_order_relaxed);
  leader_epoch_.store(m.epoch, std::memory_order_relaxed);
  leader_epoch_records_.store(m.epoch_records, std::memory_order_relaxed);
  consecutive_failures_ = 0;
  bootstrapped_ = true;
  core_->NoteBootstrap();
  return true;
}

ReplicatedFollower::TailResult ReplicatedFollower::TailOnce() {
  const uint64_t applied = core_->applied_lsn();
  const uint64_t target_records =
      leader_epoch_records_.load(std::memory_order_relaxed);
  // Cap at the leader's published record count: the follower applies
  // exactly the prefix each epoch covers, which is what makes its release
  // at that epoch byte-identical. When already at (or past) the target the
  // capped request comes back empty with fresh headers — the cheap
  // "anything new?" poll.
  const uint64_t max_lsn =
      target_records > applied ? target_records : applied;
  auto batch_or = client_.FetchWal(applied + 1, max_lsn);
  if (!batch_or.ok()) {
    if (batch_or.status().code() == StatusCode::kNotFound) {
      // The range we need was truncated behind a newer checkpoint: the
      // typed "need a new checkpoint" signal. Start over from the
      // manifest; readers keep the last published snapshot meanwhile.
      std::fprintf(stderr, "repl: %s; re-bootstrapping\n",
                   batch_or.status().message().c_str());
      core_->ResetForBootstrap();
      bootstrapped_ = false;
      return TailResult::kImmediate;
    }
    OnTransportFault(batch_or.status());
    return TailResult::kFault;
  }
  WalBatch batch = std::move(batch_or).value();
  leader_durable_lsn_.store(batch.durable_lsn, std::memory_order_relaxed);
  leader_epoch_.store(batch.epoch, std::memory_order_relaxed);
  leader_epoch_records_.store(batch.epoch_records,
                              std::memory_order_relaxed);
  consecutive_failures_ = 0;

  bool applied_any = false;
  if (!batch.frames.empty()) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    Status apply_error;
    const Status decoded = DecodeWalFrames(
        batch.frames, core_->dim(),
        [&](uint64_t lsn, std::span<const double> point, int32_t sensitive) {
          if (!apply_error.ok()) return;  // skip the rest of a bad batch
          apply_error = core_->Apply(lsn, point, sensitive);
        });
    // Entries before a defective frame are individually CRC-verified and
    // already applied — that progress is kept. The connection is dropped
    // and the next request starts from applied_lsn()+1, so the damaged
    // frame is re-fetched, never skipped.
    if (!decoded.ok() || !apply_error.ok()) {
      OnTransportFault(decoded.ok() ? apply_error : decoded);
      return TailResult::kFault;
    }
    applied_any = true;
  }

  const uint64_t now_applied = core_->applied_lsn();
  if (batch.epoch_records > 0 && now_applied == batch.epoch_records) {
    // At a leader publication point: publish it here too. PublishEpoch is
    // idempotent on the (epoch, records) pair — and deliberately not
    // monotonic in epoch, since a restarted leader renumbers from 1.
    if (core_->PublishEpoch(batch.epoch)) {
      core_->MarkCaughtUp();
    }
  }
  if (!applied_any) {
    // Empty batch under the epoch cap: everything the leader has published
    // is applied here (published implies durable implies fetchable, so a
    // publication we lacked would have produced entries).
    core_->MarkCaughtUp();
  }
  SetState(core_->fresh() ? ReplState::kFollowing : ReplState::kLagging);
  return applied_any ? TailResult::kImmediate : TailResult::kIdle;
}

void ReplicatedFollower::RunLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    if (!bootstrapped_) {
      if (!BootstrapOnce()) {
        if (!SleepFor(0)) return;  // fast stop check
        Backoff();
        continue;
      }
      SetState(ReplState::kFollowing);
      continue;
    }
    switch (TailOnce()) {
      case TailResult::kImmediate:
        break;
      case TailResult::kIdle:
        if (!core_->fresh()) SetState(ReplState::kLagging);
        if (!SleepFor(options_.poll_interval_ms)) return;
        break;
      case TailResult::kFault:
        Backoff();
        break;
    }
  }
}

namespace {

std::string StalenessValue(double staleness_ms) {
  if (!std::isfinite(staleness_ms)) return "-1";
  return std::to_string(static_cast<long long>(staleness_ms));
}

}  // namespace

FollowerFrontend::FollowerFrontend(ReplicatedFollower* follower)
    : follower_(follower),
      dp_(follower->options().dp),
      router_(MakeRoutes()) {}

std::vector<Route> FollowerFrontend::MakeRoutes() {
  const HttpHandler release = StalenessGated(
      [](const StitchedSnapshot* stitched, const HttpRequest& request) {
        return RenderRelease(stitched, request);
      });
  // A replica never takes writes; 421 tells a misconfigured client which
  // server does. (308 would make well-behaved clients resubmit there
  // transparently, but silently rerouting PII ingestion is worse than
  // failing loudly.)
  const auto misdirected = [this](const HttpRequest&) {
    HttpResponse resp = HttpResponse::Json(
        421,
        "{\"error\":\"Misdirected Request\",\"message\":\"this server is a "
        "read replica; POST /ingest to the leader\"}");
    resp.headers.emplace_back(
        "Location", "http://" + follower_->options().leader_host + ":" +
                        std::to_string(follower_->options().leader_port) +
                        "/ingest");
    return resp;
  };
  return {
      {"/ingest", "POST", "ingest", misdirected},
      {"/release", "GET", "release", release},
      {"/release/query", "GET", "release", release},
      {"/release/dp", "GET", "dp",
       StalenessGated([this](const StitchedSnapshot* stitched,
                             const HttpRequest& request) {
         return dp_.HandleRelease(stitched, request);
       })},
      {"/release/dp/query", "GET", "dp",
       StalenessGated([this](const StitchedSnapshot* stitched,
                             const HttpRequest& request) {
         return dp_.HandleQuery(stitched, request);
       })},
      {"/healthz", "GET", "healthz",
       [this](const HttpRequest&) { return HandleHealthz(); }},
      {"/metrics", "GET", "metrics",
       [this](const HttpRequest&) { return HandleMetrics(); }},
  };
}

HttpHandler FollowerFrontend::StalenessGated(SnapshotRead read) {
  return [this, read = std::move(read)](const HttpRequest& request) {
    const FollowerCore* core = follower_->core();
    const double staleness = core->staleness_ms();
    const bool reject =
        follower_->options().reject_stale_reads &&
        staleness > static_cast<double>(core->max_staleness_ms());
    HttpResponse resp =
        reject
            ? HttpResponse::FromStatus(Status::Unavailable(
                  "replica is stale (" + StalenessValue(staleness) +
                  " ms since last caught up, bound " +
                  std::to_string(core->max_staleness_ms()) + " ms)"))
            : read(core->CurrentStitched().get(), request);
    resp.headers.emplace_back("X-Kanon-Staleness-Ms",
                              StalenessValue(staleness));
    return resp;
  };
}

HttpResponse FollowerFrontend::HandleHealthz() {
  const FollowerCore* core = follower_->core();
  const ReplState state = follower_->state();
  const bool healthy = state == ReplState::kFollowing && core->fresh();
  std::string body = "{\"status\":\"";
  body += healthy ? "serving" : "degraded";
  body += "\",\"role\":\"follower\",\"repl_state\":\"";
  body += ReplStateName(state);
  body += "\",\"applied_lsn\":" + std::to_string(core->applied_lsn());
  body += ",\"epoch\":" + std::to_string(core->epoch());
  body += ",\"staleness_ms\":" + StalenessValue(core->staleness_ms());
  body += ",\"leader\":\"" + follower_->options().leader_host + ":" +
          std::to_string(follower_->options().leader_port) + "\"";
  body += ",\"reconnects\":" + std::to_string(follower_->reconnects());
  body += "}";
  // Degraded healthz backs probers off like every other 503.
  HttpResponse resp =
      healthy ? HttpResponse::Json(200, "")
              : HttpResponse::FromStatus(Status::Unavailable("degraded"));
  resp.body = std::move(body);
  return resp;
}

HttpResponse FollowerFrontend::HandleMetrics() {
  const FollowerCore* core = follower_->core();
  std::string out;
  out.reserve(4096);
  AppendPromOneHot(&out, "kanon_repl_state", follower_->state(),
                   kNumReplStates, ReplStateName);
  AppendPromMetric(&out, "kanon_repl_lag_lsn", "gauge",
                   static_cast<double>(follower_->lag_lsn()));
  const double staleness = core->staleness_ms();
  AppendPromMetric(&out, "kanon_repl_lag_ms", "gauge",
                   std::isfinite(staleness) ? staleness : -1);
  AppendPromMetric(&out, "kanon_repl_reconnects_total", "counter",
                   static_cast<double>(follower_->reconnects()));
  AppendPromMetric(&out, "kanon_repl_bootstraps_total", "counter",
                   static_cast<double>(core->bootstraps()));
  AppendPromMetric(&out, "kanon_repl_batches_total", "counter",
                   static_cast<double>(follower_->batches()));
  AppendPromMetric(&out, "kanon_repl_bytes_total", "counter",
                   static_cast<double>(follower_->bytes_total()));
  AppendPromMetric(&out, "kanon_repl_applied_lsn", "gauge",
                   static_cast<double>(core->applied_lsn()));
  AppendPromMetric(&out, "kanon_repl_epoch", "gauge",
                   static_cast<double>(core->epoch()));
  AppendPromMetric(&out, "kanon_repl_leader_epoch", "gauge",
                   static_cast<double>(follower_->leader_epoch()));
  AppendPromMetric(&out, "kanon_follower_records", "gauge",
                   static_cast<double>(core->records()));
  // DP serving: ledger counters + the per-release-point utility pair, same
  // series names as the leader so one dashboard covers both roles.
  dp_.AppendMetrics(&out, core->CurrentStitched().get());
  return router_.Metrics(out);
}

}  // namespace kanon::net
