#include "durability/recovery.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "durability/wal.h"
#include "index/tree_persistence.h"

namespace kanon {

Status LoadCheckpointInto(const CheckpointManifest& manifest, Pager* pager,
                          IncrementalAnonymizer* anonymizer) {
  if (anonymizer->size() != 0) {
    return Status::FailedPrecondition(
        "checkpoint adoption requires an empty index");
  }
  const size_t dim = anonymizer->tree().dim();
  const RTreeConfig& config = anonymizer->tree().config();
  if (manifest.dim != dim) {
    return Status::InvalidArgument("checkpoint dimensionality mismatch");
  }
  if (manifest.min_leaf != config.min_leaf ||
      manifest.max_leaf != config.max_leaf ||
      manifest.max_fanout != config.max_fanout) {
    return Status::InvalidArgument(
        "checkpoint tree configuration mismatch (was it written with a "
        "different k?)");
  }
  KANON_ASSIGN_OR_RETURN(RPlusTree tree,
                         LoadTree(pager, manifest.snapshot, dim, config));
  anonymizer->AdoptTree(std::move(tree));
  return Status::OK();
}

StatusOr<RecoveryResult> RecoverInto(const RecoveryOptions& options,
                                     IncrementalAnonymizer* anonymizer) {
  KANON_CHECK_MSG(anonymizer->size() == 0,
                  "recovery requires a fresh anonymizer");
  Env* env = options.env != nullptr ? options.env : Env::Default();
  RecoveryResult result;
  auto manifest_or = LoadManifest(options.dir, env);
  if (manifest_or.ok()) {
    const CheckpointManifest& m = *manifest_or;
    KANON_ASSIGN_OR_RETURN(auto pager,
                           FilePager::Open(options.dir + "/" + m.file,
                                           m.page_size, /*truncate=*/false,
                                           env));
    KANON_RETURN_IF_ERROR(LoadCheckpointInto(m, pager.get(), anonymizer));
    result.checkpoint_records = anonymizer->size();
    result.checkpoint_lsn = m.checkpoint_lsn;
    result.loaded_checkpoint = true;
  } else if (manifest_or.status().code() != StatusCode::kNotFound) {
    return manifest_or.status();
  }

  WalReplayResult replay;
  KANON_RETURN_IF_ERROR(ReplayWal(
      options.dir, anonymizer->tree().dim(), result.checkpoint_lsn + 1,
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
