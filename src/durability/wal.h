#ifndef KANON_DURABILITY_WAL_H_
#define KANON_DURABILITY_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace kanon {

/// Tuning knobs of the write-ahead log.
struct WalOptions {
  /// Group-commit cadence: fsync once per this many appended records. 1
  /// makes every record synchronously durable before Append returns; 0
  /// never fsyncs explicitly (the OS page cache decides — cheapest,
  /// weakest). Amortizing the fsync over a group is what keeps a durable
  /// ingest path within a small factor of the WAL-off throughput.
  size_t fsync_every = 256;
  /// Rotate to a fresh segment once the current file exceeds this size.
  size_t segment_bytes = 16u << 20;
};

/// Monotone counters of a WalWriter, readable from any thread.
struct WalStats {
  uint64_t appended = 0;    // records appended
  uint64_t bytes = 0;       // framing + payload bytes written
  uint64_t syncs = 0;       // fsyncs issued
  uint64_t segments = 0;    // segment files created by this writer
  uint64_t synced_lsn = 0;  // highest LSN known crash-durable (0 = none)
  uint64_t recoveries = 0;  // write-failure segment recoveries performed
};

/// Append-only segmented record log. Each segment file `wal-<lsn>.log`
/// (named by the first LSN it may contain) starts with a checksummed fixed
/// header and holds length-prefixed, CRC32-checksummed entries:
///
///   [u32 payload length][u32 crc32(payload)]
///   payload = u64 lsn | i32 sensitive | dim × f64 point
///
/// LSNs are assigned by the single ingest writer, start at 1 and are dense:
/// record id == lsn - 1, which is what makes replay idempotent (an entry at
/// or below the checkpoint LSN is already inside the checkpointed tree and
/// is skipped, never double-inserted).
///
/// Failure handling (all I/O goes through the Env, so every path below is
/// exercised deterministically by FaultInjectionEnv):
///
///  * A failed *write* is recoverable: the entry (and anything a torn
///    write smeared after the durable prefix) never advanced the log's
///    logical state. The next Append/Sync quarantines the damage — the
///    segment is truncated back to its last fsynced boundary, a fresh
///    segment is opened, and the entries appended-but-not-yet-synced are
///    re-appended from an in-memory copy and fsynced. Callers just retry.
///  * A failed *fsync* poisons the writer permanently: the kernel may have
///    dropped the dirty pages, so the durable prefix of the segment is
///    unknowable and a later fsync that "succeeds" proves nothing
///    (fsync-gate semantics). Every subsequent Append/Sync fails fast;
///    stats().synced_lsn remains the last horizon that was proven durable.
class WalWriter {
 public:
  /// Opens a fresh segment in `dir` (created if missing) whose first record
  /// will carry `next_lsn`. Existing segments are never appended to — a
  /// torn tail in an old segment stays quarantined behind recovery's
  /// truncation — so Open after ReplayWal is always safe. `env` = nullptr
  /// uses Env::Default().
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                   size_t dim,
                                                   uint64_t next_lsn,
                                                   WalOptions options = {},
                                                   Env* env = nullptr);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record under group commit; every options.fsync_every
  /// appends the segment is fsynced and stats().synced_lsn advances. After
  /// a write failure the same record may be retried (the writer first runs
  /// segment recovery, see above); after a sync failure the writer is
  /// poisoned and every call fails.
  Status Append(uint64_t lsn, std::span<const double> point,
                int32_t sensitive);

  /// Flushes and fsyncs the current segment, advancing synced_lsn to the
  /// last appended LSN.
  Status Sync();

  /// True once an fsync has failed: the un-synced suffix can no longer be
  /// proven durable and no retry can help (see class comment).
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  const WalOptions& options() const { return options_; }
  WalStats stats() const;

 private:
  WalWriter(std::string dir, size_t dim, WalOptions options, Env* env)
      : dir_(std::move(dir)), dim_(dim), options_(options), env_(env) {}

  Status OpenSegment(uint64_t first_lsn);
  /// Quarantines a write failure: truncate the current segment to its
  /// durable prefix, rotate, re-append the un-synced entries, fsync.
  Status RecoverSegment();
  Status SyncInternal();
  /// fsyncs the current segment; a failure poisons the writer.
  Status SyncFile();

  const std::string dir_;
  const size_t dim_;
  const WalOptions options_;
  Env* const env_;

  std::unique_ptr<WritableFile> file_;
  std::string segment_path_;
  size_t segment_bytes_written_ = 0;  // logically appended, incl. header
  size_t synced_segment_bytes_ = 0;   // durable prefix of current segment
  size_t unsynced_ = 0;               // records since last fsync
  uint64_t last_lsn_ = 0;
  std::vector<char> entry_buf_;
  /// Encoded entries appended since the last successful fsync — the replay
  /// source for RecoverSegment. Bounded by the fsync cadence (or, with
  /// fsync_every = 0, by segment rotation, which syncs).
  std::vector<char> unsynced_entries_;
  bool needs_recovery_ = false;

  std::atomic<bool> poisoned_{false};
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> segments_{0};
  std::atomic<uint64_t> synced_lsn_{0};
  std::atomic<uint64_t> recoveries_{0};
};

/// Outcome of a ReplayWal pass.
struct WalReplayResult {
  uint64_t replayed = 0;   // entries delivered to `apply`
  uint64_t skipped = 0;    // intact entries below `from_lsn` (idempotence)
  uint64_t max_lsn = 0;    // highest LSN seen (0 = empty log)
  uint64_t segments = 0;   // segment files visited
  bool truncated_tail = false;    // a torn final entry was cut off
  uint64_t truncated_bytes = 0;   // bytes removed by that truncation
};

/// Replays every intact entry with lsn >= from_lsn in log order. All three
/// readers below share one segment scanner and one rule:
///  * a torn or damaged suffix of the *newest* segment — the signature of a
///    crash mid-append — ends the scan; ReplayWal physically truncates it
///    back to the last intact entry, so the next replay (and the next
///    writer) sees a clean log;
///  * damage in any earlier, sealed segment is Corruption: those bytes were
///    fsynced before a later segment was opened, so it is bit rot;
///  * a checksum-valid entry whose LSN is not above the previous one, or is
///    below its segment header's first LSN, is Corruption in any segment.
Status ReplayWal(
    const std::string& dir, size_t dim, uint64_t from_lsn,
    const std::function<void(uint64_t lsn, std::span<const double> point,
                             int32_t sensitive)>& apply,
    WalReplayResult* result, Env* env = nullptr);

/// A contiguous run of raw CRC-framed WAL entries read back from the
/// segment files, in wire format — the unit a replication leader ships to a
/// tailing follower. `frames` is a concatenation of intact
/// `[u32 len][u32 crc][payload]` entries exactly as they sit on disk.
struct WalRangeResult {
  std::string frames;       // wire-format entries, possibly empty
  uint64_t first_lsn = 0;   // first LSN included (0 = none)
  uint64_t last_lsn = 0;    // last LSN included (0 = none)
  uint64_t oldest_lsn = 0;  // first LSN any on-disk segment may hold (0 =
                            // the log has no segments at all)
};

/// Reads intact entries with from_lsn <= lsn <= max_lsn in log order,
/// stopping once `frames` holds at least `max_bytes` (the range always
/// includes at least one entry when one is available, so a single oversized
/// cap still makes progress). Strictly read-only — unlike ReplayWal it
/// never truncates anything.
///
/// Callers serving replication must pass max_lsn <= the writer's
/// synced_lsn: entries past the durable horizon could vanish in a crash
/// and have their LSNs reassigned to different records, which a follower
/// that already applied the old bytes could never detect.
///
/// Typed failures:
///  * NotFound — `from_lsn` predates the oldest surviving segment (a
///    checkpoint truncated that range away). The caller needs a fresh
///    checkpoint, not a retry.
///  * Corruption — damage in a sealed segment or an out-of-order LSN (see
///    ReplayWal). A torn or damaged tail of the *newest* segment is not an
///    error; the range just ends before it (those bytes are an in-flight
///    append, not yet durable).
StatusOr<WalRangeResult> ReadWalRange(const std::string& dir, size_t dim,
                                      uint64_t from_lsn, uint64_t max_lsn,
                                      size_t max_bytes, Env* env = nullptr);

/// Decodes a WalRangeResult::frames byte string (the follower half of
/// ReadWalRange) with the same entry codec. Any defect — short frame, size
/// or checksum mismatch, an LSN not above the previous frame's — returns
/// Corruption without delivering the defective entry or anything after it;
/// a tailing client must drop the connection and re-request from its last
/// applied LSN rather than resynchronize mid-stream.
Status DecodeWalFrames(
    std::string_view frames, size_t dim,
    const std::function<void(uint64_t lsn, std::span<const double> point,
                             int32_t sensitive)>& apply);

/// Deletes segments made obsolete by a checkpoint at `checkpoint_lsn`: a
/// segment is removable when the next segment starts at or below
/// checkpoint_lsn + 1 (every entry it holds is inside the checkpoint). The
/// newest segment is always kept. Returns the number of files removed.
StatusOr<size_t> TruncateWalBefore(const std::string& dir,
                                   uint64_t checkpoint_lsn,
                                   Env* env = nullptr);

}  // namespace kanon

#endif  // KANON_DURABILITY_WAL_H_
