#include "durability/recovery.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "index/tree_persistence.h"

namespace kanon {

StatusOr<RecoveryResult> RecoverInto(const RecoveryOptions& options,
                                     IncrementalAnonymizer* anonymizer) {
  KANON_CHECK_MSG(anonymizer->size() == 0,
                  "recovery requires a fresh anonymizer");
  Env* env = options.env != nullptr ? options.env : Env::Default();
  RecoveryResult result;
  if (!env->FileExists(options.dir)) return result;

  const size_t dim = anonymizer->tree().dim();
  const RTreeConfig& config = anonymizer->tree().config();

  auto manifest_or = LoadManifest(options.dir, env);
  if (manifest_or.ok()) {
    const CheckpointManifest& m = *manifest_or;
    if (m.dim != dim) {
      return Status::InvalidArgument("checkpoint dimensionality mismatch");
    }
    if (m.min_leaf != config.min_leaf || m.max_leaf != config.max_leaf ||
        m.max_fanout != config.max_fanout) {
      return Status::InvalidArgument(
          "checkpoint tree configuration mismatch (was the service "
          "restarted with different k?)");
    }
    const std::string path = options.dir + "/" + m.file;
    KANON_ASSIGN_OR_RETURN(
        RPlusTree tree,
        LoadTreeFromFile(path, m.snapshot, dim, config, m.page_size, env));
    result.checkpoint_records = tree.size();
    result.checkpoint_lsn = m.checkpoint_lsn;
    result.loaded_checkpoint = true;
    anonymizer->AdoptTree(std::move(tree));
  } else if (manifest_or.status().code() != StatusCode::kNotFound) {
    return manifest_or.status();
  }

  WalReplayResult replay;
  KANON_RETURN_IF_ERROR(ReplayWal(
      options.dir, dim, result.checkpoint_lsn + 1,
      [&](uint64_t lsn, std::span<const double> point, int32_t sensitive) {
        anonymizer->Insert(point, lsn - 1, sensitive);
      },
      &replay, env));
  result.replayed = replay.replayed;
  result.skipped = replay.skipped;
  result.truncated_torn_tail = replay.truncated_tail;
  result.next_lsn = std::max(result.checkpoint_lsn, replay.max_lsn) + 1;
  result.recovered = anonymizer->size();
  return result;
}

}  // namespace kanon
