#include "shard/sharded_service.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/thread.h"

namespace kanon {

namespace {

constexpr char kLayoutFile[] = "SHARDS";
constexpr char kLayoutMagic[] = "kanon-shard-layout v1";

}  // namespace

std::string ShardWalDir(const std::string& root, size_t shard) {
  return root + "/shard-" + std::to_string(shard);
}

Status CheckOrWriteShardLayout(const std::string& root, size_t num_shards,
                               ShardBy shard_by, size_t dim, Env* env) {
  const std::string path = root + "/" + kLayoutFile;
  std::string existing;
  const Status read = ReadFileToString(env, path, &existing);
  if (read.ok()) {
    std::istringstream in(existing);
    std::string magic;
    std::getline(in, magic);
    if (magic != kLayoutMagic) {
      return Status::Corruption("unrecognized shard layout file " + path +
                                " (first line: '" + magic + "')");
    }
    size_t file_shards = 0, file_dim = 0;
    std::string file_policy;
    std::string key;
    while (in >> key) {
      if (key == "shards") {
        in >> file_shards;
      } else if (key == "shard_by") {
        in >> file_policy;
      } else if (key == "dim") {
        in >> file_dim;
      } else {
        std::string ignored;
        in >> ignored;  // forward compatibility: skip unknown keys
      }
    }
    if (file_shards != num_shards) {
      return Status::InvalidArgument(
          root + " was created with --shards=" + std::to_string(file_shards) +
          "; reopening with --shards=" + std::to_string(num_shards) +
          " would split each shard's WAL stream across different trees. "
          "Restart with the recorded shard count.");
    }
    if (file_policy != ShardByName(shard_by)) {
      return Status::InvalidArgument(
          root + " was created with --shard-by=" + file_policy +
          "; reopening with --shard-by=" + ShardByName(shard_by) +
          " would route recovered records to different shards.");
    }
    if (file_dim != dim) {
      return Status::InvalidArgument(
          root + " was created for dim=" + std::to_string(file_dim) +
          ", not dim=" + std::to_string(dim));
    }
    return Status::OK();
  }
  if (read.code() != StatusCode::kNotFound) return read;
  // No layout file. A bare MANIFEST at the root is a pre-sharding
  // unsharded layout — refuse rather than ignore the existing data.
  if (env->FileExists(root + "/MANIFEST")) {
    return Status::InvalidArgument(
        root + " holds an unsharded (pre-sharding) durability layout; "
        "recover it with a pre-sharding build or move it aside before "
        "serving sharded from this directory");
  }
  std::string contents = std::string(kLayoutMagic) + "\n" +
                         "shards " + std::to_string(num_shards) + "\n" +
                         "shard_by " + ShardByName(shard_by) + "\n" +
                         "dim " + std::to_string(dim) + "\n";
  KANON_ASSIGN_OR_RETURN(auto file,
                         env->NewWritableFile(path, /*truncate=*/true));
  KANON_RETURN_IF_ERROR(file->Append(contents.data(), contents.size()));
  KANON_RETURN_IF_ERROR(file->Sync());
  KANON_RETURN_IF_ERROR(file->Close());
  return env->SyncDir(root);
}

ShardedAnonymizationService::ShardedAnonymizationService(
    size_t dim, Domain domain, ShardedServiceOptions options)
    : dim_(dim),
      options_(options),
      domain_(std::move(domain)),
      router_(options.sharding, domain_) {
  KANON_CHECK(options_.sharding.num_shards >= 1);
}

StatusOr<std::unique_ptr<ShardedAnonymizationService>>
ShardedAnonymizationService::Create(size_t dim, Domain domain,
                                    ShardedServiceOptions options) {
  if (options.sharding.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::unique_ptr<ShardedAnonymizationService> service(
      new ShardedAnonymizationService(dim, std::move(domain), options));
  const DurabilityOptions& d = options.service.durability;
  if (d.enabled()) {
    Env* env = d.env != nullptr ? d.env : Env::Default();
    KANON_RETURN_IF_ERROR(env->CreateDirs(d.wal_dir));
    KANON_RETURN_IF_ERROR(CheckOrWriteShardLayout(
        d.wal_dir, options.sharding.num_shards, options.sharding.shard_by,
        dim, env));
  }
  service->shards_.reserve(options.sharding.num_shards);
  for (size_t i = 0; i < options.sharding.num_shards; ++i) {
    ServiceOptions shard_options = options.service;
    if (d.enabled()) {
      shard_options.durability.wal_dir = ShardWalDir(d.wal_dir, i);
    }
    auto shard = AnonymizationService::Create(dim, service->domain_,
                                              shard_options);
    if (!shard.ok()) {
      return Status(shard.status().code(),
                    "shard " + std::to_string(i) + ": " +
                        shard.status().message());
    }
    service->shards_.push_back(std::move(shard).value());
  }
  return service;
}

ShardedAnonymizationService::~ShardedAnonymizationService() { Stop(); }

Status ShardedAnonymizationService::Ingest(std::span<const double> point,
                                           int32_t sensitive) {
  KANON_CHECK(point.size() == dim_);
  return shards_[router_.ShardOf(point)]->Ingest(point, sensitive);
}

ServiceHealth ShardedAnonymizationService::health() const {
  size_t stopped = 0;
  for (const auto& shard : shards_) {
    switch (shard->health()) {
      case ServiceHealth::kDegraded:
        return ServiceHealth::kDegraded;
      case ServiceHealth::kStopped:
        ++stopped;
        break;
      case ServiceHealth::kServing:
        break;
    }
  }
  return stopped == shards_.size() ? ServiceHealth::kStopped
                                   : ServiceHealth::kServing;
}

std::string ShardedAnonymizationService::degraded_reason() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string reason = shards_[i]->degraded_reason();
    if (!reason.empty()) {
      return "shard " + std::to_string(i) + ": " + reason;
    }
  }
  return "";
}

std::shared_ptr<const StitchedSnapshot>
ShardedAnonymizationService::CurrentStitched() const {
  std::vector<std::shared_ptr<const Snapshot>> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) parts.push_back(shard->CurrentSnapshot());
  // A replaced view may hold the last reference to a shard's previous
  // snapshot; it is dropped after the lock is released (locals die in
  // reverse order), so no reader waits on its blocks being freed.
  std::shared_ptr<const StitchedSnapshot> replaced;
  std::lock_guard<std::mutex> lock(view_mu_);
  // Keep the newer of each shard's snapshot and the view's part: shard
  // epochs only grow, so a caller that read a shard before a racing caller
  // installed a fresher view never rolls that view back.
  bool changed = false;
  for (size_t i = 0; i < parts.size(); ++i) {
    const Snapshot* held = view_ != nullptr ? view_->parts()[i].get() : nullptr;
    if (held != nullptr && (parts[i] == nullptr ||
                            parts[i]->info().epoch <= held->info().epoch)) {
      parts[i] = view_->parts()[i];
    } else if (parts[i] != nullptr) {
      changed = true;
    }
  }
  if (changed) {
    replaced = std::exchange(
        view_, std::make_shared<const StitchedSnapshot>(std::move(parts),
                                                        domain_));
  }
  return view_;
}

std::shared_ptr<const StitchedSnapshot>
ShardedAnonymizationService::PublishNow() {
  for (const auto& shard : shards_) shard->PublishNow();
  return CurrentStitched();
}

StatusOr<PartitionSet> ShardedAnonymizationService::GetRelease(
    size_t k1) const {
  const std::shared_ptr<const StitchedSnapshot> stitched = CurrentStitched();
  if (stitched == nullptr) {
    return Status::FailedPrecondition("no shard has published yet");
  }
  return stitched->Release(k1);
}

void ShardedAnonymizationService::Stop() {
  // Concurrent drain: each shard's Stop drains its queue, flushes its WAL
  // and publishes its final snapshot; doing them in parallel keeps total
  // drain latency at max(shard) instead of sum(shard). Stop is idempotent
  // per shard, so concurrent callers of this Stop are safe too.
  std::vector<JoinableThread> joiners;
  joiners.reserve(shards_.size());
  for (const auto& shard : shards_) {
    joiners.emplace_back([s = shard.get()] { s->Stop(); });
  }
  // ~JoinableThread joins.
}

uint64_t ShardedAnonymizationService::inserted() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->inserted();
  return total;
}

ShardedServiceStats ShardedAnonymizationService::Stats() const {
  ShardedServiceStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.shards.push_back(shard->Stats());
    MergeShardStats(stats.shards.back(), &stats.total);
  }
  stats.total.health = health();
  stats.total.degraded_reason = degraded_reason();
  return stats;
}

}  // namespace kanon
