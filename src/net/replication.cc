#include "net/replication.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "durability/recovery.h"
#include "durability/wal.h"
#include "net/http_status.h"
#include "service/snapshot.h"
#include "storage/pager.h"

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

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// The /repl wire codec. Each field list below is walked by both the encoder
// and the decoder, so a key's name and position are written down once.

template <typename Manifest, typename Visit>
void ForEachManifestField(Manifest& m, Visit&& visit) {
  visit("shards", m.shards);
  visit("dim", m.dim);
  visit("base_k", m.base_k);
  visit("leaf_capacity_factor", m.leaf_capacity_factor);
  visit("max_fanout", m.max_fanout);
  visit("dp_height", m.dp_height);
  visit("durable_lsn", m.durable_lsn);
  visit("epoch", m.epoch);
  visit("epoch_records", m.epoch_records);
  visit("checkpoint_lsn", m.checkpoint_lsn);
}

/// The nested "checkpoint" object, present when checkpoint_lsn > 0.
template <typename Checkpoint, typename Visit>
void ForEachCheckpointField(Checkpoint& c, Visit&& visit) {
  visit("file", c.file);
  visit("page_size", c.page_size);
  visit("min_leaf", c.min_leaf);
  visit("max_leaf", c.max_leaf);
  visit("max_fanout", c.max_fanout);
  visit("first_page", c.snapshot.first_page);
  visit("byte_size", c.snapshot.byte_size);
  visit("record_count", c.snapshot.record_count);
  visit("crc32", c.snapshot.crc32);
}

template <typename Batch, typename Visit>
void ForEachWalHeader(Batch& b, Visit&& visit) {
  visit("X-Kanon-First-Lsn", b.first_lsn);
  visit("X-Kanon-Last-Lsn", b.last_lsn);
  visit("X-Kanon-Durable-Lsn", b.durable_lsn);
  visit("X-Kanon-Epoch", b.epoch);
  visit("X-Kanon-Epoch-Records", b.epoch_records);
}

/// One past the JSON value that starts at s[i] (a string, an object or
/// array, or a bare scalar); npos when the input ends first.
size_t ValueEnd(std::string_view s, size_t i) {
  int depth = 0;
  for (bool in_string = false; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      in_string = c != '"';
      if (!in_string && depth == 0) return i + 1;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']' || c == ',') {
      if (depth == 0) return i;
      if (c != ',' && --depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

/// Members of one compact JSON object as our serializer writes it: keys
/// as written, values as raw text ("12", "\"a\"", "{...}").
using JsonMembers = std::vector<std::pair<std::string_view, std::string_view>>;

StatusOr<JsonMembers> SplitJsonObject(std::string_view s) {
  const Status bad = Status::Corruption("malformed JSON object");
  if (s == "{}") return JsonMembers{};
  if (s.empty() || s.front() != '{') return bad;
  JsonMembers members;
  for (size_t i = 1;;) {
    if (i >= s.size() || s[i] != '"') return bad;
    const size_t colon = ValueEnd(s, i);
    if (colon >= s.size() || s[colon] != ':') return bad;
    const size_t end = ValueEnd(s, colon + 1);
    if (end >= s.size() || end == colon + 1) return bad;
    members.emplace_back(s.substr(i + 1, colon - i - 2),
                         s.substr(colon + 1, end - colon - 1));
    if (s[end] == '}' && end + 1 == s.size()) return members;
    if (s[end] != ',') return bad;
    i = end + 1;
  }
}

/// Decodes every field `for_each` visits out of the JSON object `body`.
/// Each must be present: a whole decimal number that fits the field, or a
/// string without escapes for string fields.
template <typename ForEach>
StatusOr<JsonMembers> ReadFields(std::string_view body, ForEach&& for_each) {
  KANON_ASSIGN_OR_RETURN(JsonMembers members, SplitJsonObject(body));
  Status status;
  for_each([&](std::string_view key, auto& value) {
    using T = std::decay_t<decltype(value)>;
    const auto it = std::find_if(members.begin(), members.end(),
                                 [key](const auto& m) { return m.first == key; });
    const std::string_view raw = it == members.end() ? "" : it->second;
    bool ok;
    if constexpr (std::is_same_v<T, std::string>) {
      ok = raw.size() >= 2 && raw.front() == '"' && raw.back() == '"' &&
           raw.find('\\') == std::string_view::npos;
      if (ok) value = raw.substr(1, raw.size() - 2);
    } else {
      uint64_t v = 0;
      ok = ParseU64Param(raw, &v) && v <= std::numeric_limits<T>::max();
      value = static_cast<T>(v);
    }
    if (!ok && status.ok()) {
      status = Status::Corruption("leader manifest key \"" +
                                  std::string(key) +
                                  "\" is missing or malformed");
    }
  });
  if (!status.ok()) return status;
  return members;
}

/// The leader's error document, for logs.
std::string ErrorMessage(const ClientResponse& resp) {
  return "HTTP " + std::to_string(resp.status) + " " + resp.body;
}

}  // namespace

std::string EncodeLeaderManifest(const LeaderManifest& manifest) {
  std::string out = "{";
  const auto put = [&out](std::string_view key, const auto& value) {
    if (out.back() != '{') out += ',';
    out += '"';
    out += key;
    out += "\":";
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 std::string>) {
      out += '"' + JsonEscape(value) + '"';
    } else {
      out += std::to_string(static_cast<uint64_t>(value));
    }
  };
  ForEachManifestField(manifest, put);
  if (manifest.checkpoint_lsn > 0) {
    out += ",\"checkpoint\":{";
    ForEachCheckpointField(manifest.checkpoint, put);
    out += '}';
  }
  out += '}';
  return out;
}

StatusOr<LeaderManifest> DecodeLeaderManifest(std::string_view body) {
  LeaderManifest m;
  KANON_ASSIGN_OR_RETURN(
      const JsonMembers members,
      ReadFields(body, [&m](auto visit) { ForEachManifestField(m, visit); }));
  if (m.dim == 0 || m.base_k == 0) {
    return Status::Corruption("leader manifest has zero dim/base_k");
  }
  if (m.checkpoint_lsn > 0) {
    std::string_view nested;
    for (const auto& [name, raw] : members) {
      if (name == "checkpoint") nested = raw;
    }
    KANON_RETURN_IF_ERROR(ReadFields(nested, [&m](auto visit) {
                            ForEachCheckpointField(m.checkpoint, visit);
                          }).status());
    if (m.checkpoint.file.empty() || m.checkpoint.page_size == 0) {
      return Status::Corruption("leader manifest checkpoint malformed");
    }
    m.checkpoint.dim = static_cast<uint32_t>(m.dim);
    m.checkpoint.checkpoint_lsn = m.checkpoint_lsn;
  }
  return m;
}

HttpResponse EncodeWalBatch(WalBatch batch) {
  HttpResponse resp;
  resp.status = 200;
  resp.content_type = "application/octet-stream";
  ForEachWalHeader(batch, [&resp](std::string_view name, uint64_t value) {
    resp.headers.emplace_back(std::string(name), std::to_string(value));
  });
  resp.body = std::move(batch.frames);
  return resp;
}

StatusOr<WalBatch> DecodeWalBatch(ClientResponse response) {
  WalBatch batch;
  Status status;
  ForEachWalHeader(batch, [&](std::string_view name, uint64_t& value) {
    std::string lower(name);  // ClientResponse lowercases header names
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const std::string* raw = response.FindHeader(lower);
    if (status.ok() && (raw == nullptr || !ParseU64Param(*raw, &value))) {
      status = Status::Corruption("leader /repl/wal answer lacks a numeric " +
                                  std::string(name) + " header");
    }
  });
  if (!status.ok()) return status;
  batch.frames = std::move(response.body);
  return batch;
}

ReplicationClient::ReplicationClient(std::string host, uint16_t port,
                                     double timeout_s)
    : host_(std::move(host)), port_(port), timeout_s_(timeout_s) {}

StatusOr<ClientResponse> ReplicationClient::Fetch(const std::string& target) {
  if (!client_.connected()) {
    KANON_RETURN_IF_ERROR(client_.Connect(host_, port_, timeout_s_));
  }
  return client_.Get(target);
}

StatusOr<LeaderManifest> ReplicationClient::FetchManifest() {
  KANON_ASSIGN_OR_RETURN(ClientResponse resp, Fetch("/repl/manifest"));
  if (resp.status != 200) {
    return Status::Unavailable("leader /repl/manifest: " +
                               ErrorMessage(resp));
  }
  return DecodeLeaderManifest(resp.body);
}

StatusOr<std::string> ReplicationClient::FetchCheckpoint(uint64_t lsn) {
  KANON_ASSIGN_OR_RETURN(ClientResponse resp,
                         Fetch("/repl/checkpoint/" + std::to_string(lsn)));
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
      Fetch("/repl/wal?from_lsn=" + std::to_string(from_lsn) +
            "&max_lsn=" + std::to_string(max_lsn) +
            "&max_bytes=" + std::to_string(kMaxBatchBytes)));
  if (resp.status == 410) {
    return Status::NotFound("leader WAL range gone: " + ErrorMessage(resp));
  }
  if (resp.status != 200) {
    return Status::Unavailable("leader /repl/wal: " + ErrorMessage(resp));
  }
  bytes_total_.fetch_add(resp.body.size(), std::memory_order_relaxed);
  return DecodeWalBatch(std::move(resp));
}

ReplicatedFollower::ReplicatedFollower(Domain domain, FollowerOptions options)
    : options_(std::move(options)),
      domain_(std::move(domain)),
      client_(options_.leader_host, options_.leader_port,
              options_.request_timeout_s) {
  jitter_state_ = options_.jitter_seed != 0
                      ? options_.jitter_seed
                      : static_cast<uint64_t>(NowNs()) | 1;
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

void ReplicatedFollower::OnTransportFault() {
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  ++consecutive_failures_;
  client_.Disconnect();
  SetState(ReplState::kDisconnected);
}

bool ReplicatedFollower::BootstrapOnce() {
  SetState(ReplState::kBootstrapping);
  auto manifest_or = client_.FetchManifest();
  if (!manifest_or.ok()) {
    OnTransportFault();
    return false;
  }
  const LeaderManifest& m = *manifest_or;
  if (m.dim != domain_.dim() || m.shards != 1) {
    // A config error, not a transient: keep retrying (the operator may
    // repoint --follow), but say why. One shard of a sharded leader would
    // be served as if it were the whole release, so nothing is published.
    std::fprintf(stderr,
                 "repl: leader has %zu shards and dim %zu; a follower needs "
                 "1 shard and dim %zu (check --follow and --domain)\n",
                 m.shards, m.dim, domain_.dim());
    ++consecutive_failures_;
    return false;
  }
  // Bootstrapping (again) starts from an empty tree shaped by the leader.
  // The last published snapshot stays up: readers keep the old but
  // consistent release until this bootstrap publishes a newer one.
  RTreeIndexOptions shape;
  shape.base_k = m.base_k;
  shape.leaf_capacity_factor = m.leaf_capacity_factor;
  shape.max_fanout = m.max_fanout;
  anonymizer_ =
      std::make_unique<IncrementalAnonymizer>(m.dim, shape, &domain_);
  dp_cells_ = std::make_unique<DpCellCounter>(domain_, m.dp_height);
  records_.store(0, std::memory_order_release);
  applied_lsn_.store(0, std::memory_order_release);
  if (m.checkpoint_lsn > 0) {
    auto bytes_or = client_.FetchCheckpoint(m.checkpoint_lsn);
    if (!bytes_or.ok()) {
      if (bytes_or.status().code() == StatusCode::kNotFound) {
        // GC'd between manifest and download: re-fetch the manifest on the
        // next round — resumable bootstrap, not an error loop.
        ++consecutive_failures_;
        return false;
      }
      OnTransportFault();
      return false;
    }
    // The download never touches disk: its pages go into a MemPager (the
    // last one zero-padded) and LoadCheckpointInto CRC-verifies them
    // against the manifest before the tree is adopted.
    const Status adopted = [&]() -> Status {
      const size_t page_size = m.checkpoint.page_size;
      MemPager pager(page_size);
      std::vector<char> page(page_size);
      for (size_t at = 0; at < bytes_or->size(); at += page_size) {
        const size_t n = std::min(page_size, bytes_or->size() - at);
        std::copy_n(bytes_or->data() + at, n, page.begin());
        std::fill(page.begin() + n, page.end(), 0);
        KANON_RETURN_IF_ERROR(pager.Write(pager.Allocate(), page.data()));
      }
      *bytes_or = std::string();  // free the download before LoadTree
      return LoadCheckpointInto(m.checkpoint, &pager, anonymizer_.get());
    }();
    if (!adopted.ok()) {
      std::fprintf(stderr, "repl: checkpoint adoption failed: %s\n",
                   adopted.ToString().c_str());
      ++consecutive_failures_;
      return false;
    }
    dp_cells_->Recount(anonymizer_->tree());
    records_.store(anonymizer_->size(), std::memory_order_release);
    applied_lsn_.store(m.checkpoint_lsn, std::memory_order_release);
  }
  leader_durable_lsn_.store(m.durable_lsn, std::memory_order_relaxed);
  leader_epoch_.store(m.epoch, std::memory_order_relaxed);
  leader_epoch_records_.store(m.epoch_records, std::memory_order_relaxed);
  consecutive_failures_ = 0;
  bootstrapped_ = true;
  bootstraps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status ReplicatedFollower::Apply(uint64_t lsn, std::span<const double> point,
                                 int32_t sensitive) {
  // The client re-requests from applied_lsn()+1 after any transport fault,
  // so a gap here means a protocol bug, not a flaky network.
  const uint64_t applied = applied_lsn_.load(std::memory_order_relaxed);
  if (lsn != applied + 1) {
    return Status::Internal("replication gap: expected lsn " +
                            std::to_string(applied + 1) + ", got " +
                            std::to_string(lsn));
  }
  if (point.size() != domain_.dim()) {
    return Status::Corruption("replicated entry has wrong dimensionality");
  }
  // Same identity as leader recovery replay: record id == lsn - 1, so the
  // follower's rid space is bit-compatible with the leader's.
  anonymizer_->Insert(point, static_cast<RecordId>(lsn - 1), sensitive);
  dp_cells_->Add(point);
  records_.store(anonymizer_->size(), std::memory_order_release);
  applied_lsn_.store(lsn, std::memory_order_release);
  return Status::OK();
}

bool ReplicatedFollower::PublishEpoch(uint64_t epoch) {
  const RPlusTree& tree = anonymizer_->tree();
  if (tree.size() < anonymizer_->options().base_k) return false;
  // Idempotence is on the (epoch, records) pair, not a monotonic epoch: a
  // restarted leader renumbers epochs from 1 (its counter is in-memory),
  // and the follower must keep matching its publication points rather
  // than freeze on the old number.
  if (epoch == epoch_.load(std::memory_order_relaxed) &&
      tree.size() == published_records_.load(std::memory_order_relaxed)) {
    return false;
  }
  // The leader publishes through the same BuildSnapshot: the follower
  // replays records in LSN order into an identically shaped tree and
  // counts DP cells per applied record as the leader does, so the leaf
  // groups, every k1 release and the DP cell counts come out identical to
  // the leader's at the same (epoch, records) point.
  std::shared_ptr<const Snapshot> snapshot = BuildSnapshot(
      tree, domain_, anonymizer_->options().base_k, *dp_cells_, epoch);
  const uint64_t records = snapshot->info().records;
  auto current = std::make_shared<const StitchedSnapshot>(
      std::vector<std::shared_ptr<const Snapshot>>{std::move(snapshot)},
      domain_);
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(current);
  }
  current.reset();  // the replaced release point, dropped off the lock
  epoch_.store(epoch, std::memory_order_release);
  published_records_.store(records, std::memory_order_release);
  return true;
}

void ReplicatedFollower::MarkCaughtUp() {
  caught_up_ns_.store(NowNs(), std::memory_order_release);
}

double ReplicatedFollower::staleness_ms() const {
  const int64_t at = caught_up_ns_.load(std::memory_order_acquire);
  if (at == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(NowNs() - at) / 1e6;
}

std::shared_ptr<const StitchedSnapshot> ReplicatedFollower::CurrentStitched()
    const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

ReplicatedFollower::TailResult ReplicatedFollower::TailOnce() {
  const uint64_t applied = applied_lsn();
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
      // typed "need a new checkpoint" signal. Bootstrap again; readers
      // keep the last published snapshot meanwhile.
      std::fprintf(stderr, "repl: %s; re-bootstrapping\n",
                   batch_or.status().message().c_str());
      bootstrapped_ = false;
      return TailResult::kImmediate;
    }
    OnTransportFault();
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
        batch.frames, domain_.dim(),
        [&](uint64_t lsn, std::span<const double> point, int32_t sensitive) {
          if (!apply_error.ok()) return;  // skip the rest of a bad batch
          apply_error = Apply(lsn, point, sensitive);
        });
    // Entries before a defective frame are individually CRC-verified and
    // already applied — that progress is kept. The connection is dropped
    // and the next request starts from applied_lsn()+1, so the damaged
    // frame is re-fetched, never skipped.
    if (!decoded.ok() || !apply_error.ok()) {
      OnTransportFault();
      return TailResult::kFault;
    }
    applied_any = true;
  }

  if (batch.epoch_records > 0 && applied_lsn() == batch.epoch_records) {
    // At a leader publication point: publish it here too.
    if (PublishEpoch(batch.epoch)) MarkCaughtUp();
  }
  if (!applied_any) {
    // Empty batch under the epoch cap: everything the leader has published
    // is applied here (published implies durable implies fetchable, so a
    // publication we lacked would have produced entries).
    MarkCaughtUp();
  }
  SetState(fresh() ? ReplState::kFollowing : ReplState::kLagging);
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
        if (!fresh()) SetState(ReplState::kLagging);
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
    const FollowerOptions& options = follower_->options();
    const double staleness = follower_->staleness_ms();
    const bool reject =
        options.reject_stale_reads &&
        staleness > static_cast<double>(options.max_staleness_ms);
    HttpResponse resp =
        reject
            ? HttpResponse::FromStatus(Status::Unavailable(
                  "replica is stale (" + StalenessValue(staleness) +
                  " ms since last caught up, bound " +
                  std::to_string(options.max_staleness_ms) + " ms)"))
            : read(follower_->CurrentStitched().get(), request);
    resp.headers.emplace_back("X-Kanon-Staleness-Ms",
                              StalenessValue(staleness));
    return resp;
  };
}

HttpResponse FollowerFrontend::HandleHealthz() {
  const ReplState state = follower_->state();
  const bool healthy = state == ReplState::kFollowing && follower_->fresh();
  std::string body = "{\"status\":\"";
  body += healthy ? "serving" : "degraded";
  body += "\",\"role\":\"follower\",\"repl_state\":\"";
  body += ReplStateName(state);
  body += "\",\"applied_lsn\":" + std::to_string(follower_->applied_lsn());
  body += ",\"epoch\":" + std::to_string(follower_->epoch());
  body += ",\"staleness_ms\":" + StalenessValue(follower_->staleness_ms());
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
  std::string out;
  out.reserve(4096);
  AppendPromOneHot(&out, "kanon_repl_state", follower_->state(),
                   kNumReplStates, ReplStateName);
  AppendPromMetric(&out, "kanon_repl_lag_lsn", "gauge",
                   static_cast<double>(follower_->lag_lsn()));
  const double staleness = follower_->staleness_ms();
  AppendPromMetric(&out, "kanon_repl_lag_ms", "gauge",
                   std::isfinite(staleness) ? staleness : -1);
  AppendPromMetric(&out, "kanon_repl_reconnects_total", "counter",
                   static_cast<double>(follower_->reconnects()));
  AppendPromMetric(&out, "kanon_repl_bootstraps_total", "counter",
                   static_cast<double>(follower_->bootstraps()));
  AppendPromMetric(&out, "kanon_repl_batches_total", "counter",
                   static_cast<double>(follower_->batches()));
  AppendPromMetric(&out, "kanon_repl_bytes_total", "counter",
                   static_cast<double>(follower_->bytes_total()));
  AppendPromMetric(&out, "kanon_repl_applied_lsn", "gauge",
                   static_cast<double>(follower_->applied_lsn()));
  AppendPromMetric(&out, "kanon_repl_epoch", "gauge",
                   static_cast<double>(follower_->epoch()));
  AppendPromMetric(&out, "kanon_repl_leader_epoch", "gauge",
                   static_cast<double>(follower_->leader_epoch()));
  AppendPromMetric(&out, "kanon_follower_records", "gauge",
                   static_cast<double>(follower_->records()));
  // DP serving: ledger counters + the per-release-point utility pair, same
  // series names as the leader so one dashboard covers both roles.
  dp_.AppendMetrics(&out, follower_->CurrentStitched().get());
  return router_.Metrics(out);
}

}  // namespace kanon::net
