#ifndef KANON_DURABILITY_RECOVERY_H_
#define KANON_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <string>

#include "anon/rtree_anonymizer.h"
#include "common/env.h"
#include "common/status.h"
#include "durability/checkpoint.h"
#include "storage/pager.h"

namespace kanon {

struct RecoveryOptions {
  /// Durability directory holding MANIFEST, checkpoint files and WAL
  /// segments. A missing or empty directory recovers to a fresh state.
  std::string dir;
  /// Filesystem to recover from; nullptr uses Env::Default().
  Env* env = nullptr;
};

/// What a recovery pass reconstructed.
struct RecoveryResult {
  uint64_t recovered = 0;           // live records after recovery
  uint64_t checkpoint_records = 0;  // of which came from the checkpoint
  uint64_t checkpoint_lsn = 0;      // 0 = no checkpoint loaded
  uint64_t replayed = 0;            // WAL entries re-inserted
  uint64_t skipped = 0;             // WAL entries already in the checkpoint
  uint64_t next_lsn = 1;            // first LSN the resumed writer assigns
  bool loaded_checkpoint = false;
  bool truncated_torn_tail = false; // a crash mid-append was cleaned up
};

/// Adopts the checkpoint `manifest` describes as the tree of the empty
/// `anonymizer`: the one adoption path of crash recovery (the checkpoint
/// file's pages) and of a read replica's bootstrap (the downloaded pages,
/// in memory). `pager` holds the pages laid out as SaveTreeToFile wrote
/// them. The manifest's dimension and tree configuration must match the
/// anonymizer's (a different k refuses the checkpoint), and LoadTree checks
/// the page image's CRC before the tree is adopted.
Status LoadCheckpointInto(const CheckpointManifest& manifest, Pager* pager,
                          IncrementalAnonymizer* anonymizer);

/// Rebuilds `anonymizer`'s tree from the durability directory: adopt the
/// manifest's checkpoint (LoadCheckpointInto), then replay the WAL tail
/// through the normal insert path. Replay is idempotent via LSNs — entries
/// at or below the checkpoint LSN are skipped — so a crash between a
/// checkpoint and the WAL truncation behind it costs nothing. A torn final
/// WAL entry (crash mid-append) is truncated away, not fatal.
///
/// The anonymizer must be freshly constructed (empty). On success the
/// caller resumes ingest with rid == next_lsn - 1 for the next record.
StatusOr<RecoveryResult> RecoverInto(const RecoveryOptions& options,
                                     IncrementalAnonymizer* anonymizer);

}  // namespace kanon

#endif  // KANON_DURABILITY_RECOVERY_H_
