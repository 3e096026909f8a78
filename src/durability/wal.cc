#include "durability/wal.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/check.h"
#include "common/crc32.h"

namespace kanon {

namespace {

constexpr uint32_t kWalMagic = 0x6b57414cu;  // "LAWk" little-endian
constexpr uint32_t kWalVersion = 1;

// magic u32 | version u32 | dim u32 | reserved u32 | first_lsn u64 | crc u32
constexpr size_t kSegmentHeaderSize = 4 * sizeof(uint32_t) + sizeof(uint64_t) +
                                      sizeof(uint32_t);

// Entry frame: payload length u32 | crc32(payload) u32
constexpr size_t kFrameSize = 2 * sizeof(uint32_t);

size_t PayloadSize(size_t dim) {
  return sizeof(uint64_t) + sizeof(int32_t) + dim * sizeof(double);
}

size_t EntrySize(size_t dim) { return kFrameSize + PayloadSize(dim); }

std::string SegmentName(uint64_t first_lsn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020" PRIu64 ".log", first_lsn);
  return buf;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

/// Parses `wal-<20 digits>.log`; returns false for any other file name.
bool ParseSegmentName(const std::string& name, uint64_t* first_lsn) {
  if (name.size() != 28 || name.rfind("wal-", 0) != 0 ||
      name.compare(24, 4, ".log") != 0) {
    return false;
  }
  const char* last = name.data() + 24;
  const auto [ptr, ec] = std::from_chars(name.data() + 4, last, *first_lsn);
  return ec == std::errc() && ptr == last;
}

struct SegmentFile {
  std::string path;
  uint64_t first_lsn = 0;
};

/// Segment files in `dir`, ordered by first LSN; none if `dir` is missing.
StatusOr<std::vector<SegmentFile>> ListSegments(const std::string& dir,
                                                Env* env) {
  if (!env->FileExists(dir)) return std::vector<SegmentFile>{};
  KANON_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                         env->ListDir(dir));
  std::vector<SegmentFile> segments;
  for (const std::string& name : names) {
    uint64_t first_lsn = 0;
    if (ParseSegmentName(name, &first_lsn)) {
      segments.push_back({JoinPath(dir, name), first_lsn});
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.first_lsn < b.first_lsn;
            });
  return segments;
}

void EncodeHeader(char* buf, size_t dim, uint64_t first_lsn) {
  const uint32_t words[4] = {kWalMagic, kWalVersion,
                             static_cast<uint32_t>(dim), /*reserved=*/0};
  std::memcpy(buf, words, sizeof(words));
  std::memcpy(buf + sizeof(words), &first_lsn, sizeof(first_lsn));
  const uint32_t crc = Crc32(buf, kSegmentHeaderSize - sizeof(crc));
  std::memcpy(buf + kSegmentHeaderSize - sizeof(crc), &crc, sizeof(crc));
}

/// Returns InvalidArgument on a header that is well-formed but for a
/// different stream shape, Corruption on a damaged one.
Status DecodeHeader(const char* buf, size_t dim, uint64_t* first_lsn) {
  uint32_t words[4], crc;  // magic, version, dim, reserved
  std::memcpy(words, buf, sizeof(words));
  std::memcpy(first_lsn, buf + sizeof(words), sizeof(*first_lsn));
  std::memcpy(&crc, buf + kSegmentHeaderSize - sizeof(crc), sizeof(crc));
  if (Crc32(buf, kSegmentHeaderSize - sizeof(crc)) != crc) {
    return Status::Corruption("wal segment header failed checksum");
  }
  if (words[0] != kWalMagic || words[1] != kWalVersion) {
    return Status::Corruption("not a wal segment");
  }
  if (words[2] != dim) {
    return Status::InvalidArgument("wal segment dimensionality mismatch");
  }
  return Status::OK();
}

/// One decoded entry; `point` holds dim coordinates.
struct WalEntry {
  explicit WalEntry(size_t dim) : point(dim) {}
  uint64_t lsn = 0;
  int32_t sensitive = 0;
  std::vector<double> point;
};

/// Writes one entry, EntrySize(point.size()) bytes, to `buf`.
void EncodeEntry(uint64_t lsn, std::span<const double> point,
                 int32_t sensitive, char* buf) {
  const uint32_t payload_size =
      static_cast<uint32_t>(PayloadSize(point.size()));
  char* payload = buf + kFrameSize;
  std::memcpy(payload, &lsn, sizeof(lsn));
  std::memcpy(payload + sizeof(lsn), &sensitive, sizeof(sensitive));
  std::memcpy(payload + sizeof(lsn) + sizeof(sensitive), point.data(),
              point.size_bytes());
  const uint32_t crc = Crc32(payload, payload_size);
  std::memcpy(buf, &payload_size, sizeof(payload_size));
  std::memcpy(buf + sizeof(payload_size), &crc, sizeof(crc));
}

/// The one reader of the entry layout: decodes the entry at the front of
/// `bytes` into `*entry`. Returns false for a damaged entry (short,
/// mis-sized or failed checksum: a torn write or bit rot). An intact entry
/// whose LSN is not above `*prev_lsn` or is below `first_lsn` is Corruption
/// wherever it sits; otherwise *prev_lsn advances to it.
StatusOr<bool> DecodeEntry(std::string_view bytes, uint64_t first_lsn,
                           uint64_t* prev_lsn, WalEntry* entry) {
  const size_t payload_size = PayloadSize(entry->point.size());
  if (bytes.size() < kFrameSize + payload_size) return false;
  uint32_t stored_size = 0, stored_crc = 0;
  std::memcpy(&stored_size, bytes.data(), sizeof(stored_size));
  std::memcpy(&stored_crc, bytes.data() + sizeof(stored_size),
              sizeof(stored_crc));
  const char* payload = bytes.data() + kFrameSize;
  if (stored_size != payload_size ||
      Crc32(payload, payload_size) != stored_crc) {
    return false;
  }
  std::memcpy(&entry->lsn, payload, sizeof(entry->lsn));
  std::memcpy(&entry->sensitive, payload + sizeof(entry->lsn),
              sizeof(entry->sensitive));
  std::memcpy(entry->point.data(),
              payload + sizeof(entry->lsn) + sizeof(entry->sensitive),
              entry->point.size() * sizeof(double));
  if (entry->lsn <= *prev_lsn || entry->lsn < first_lsn) {
    return Status::Corruption("wal lsn " + std::to_string(entry->lsn) +
                              " out of order after lsn " +
                              std::to_string(*prev_lsn));
  }
  *prev_lsn = entry->lsn;
  return true;
}

/// Offset of the damage a scan of the newest segment stopped at (0 = the
/// header), if any.
using TornAt = std::optional<uint64_t>;

/// Receives each intact entry and its raw bytes; returns false to stop.
using EntryVisitor = std::function<bool(const WalEntry&, std::string_view)>;

/// Visits the intact entries of one segment in log order, reading one
/// entry per ReadAt. The rule every segment reader shares:
///  * damage (short or failed header; short, mis-sized or checksum-failed
///    entry) in the newest segment ends the scan: a crash mid-append;
///  * damage in a sealed segment is Corruption: those bytes were fsynced
///    before a later segment was opened, so it is bit rot;
///  * an intact entry whose LSN is not above the previous one (`*prev_lsn`,
///    carried across segments) or is below the header's first LSN is
///    Corruption in any segment (DecodeEntry).
StatusOr<TornAt> ScanSegment(const SegmentFile& segment, size_t dim,
                             bool newest, uint64_t* prev_lsn,
                             const EntryVisitor& visit, Env* env) {
  KANON_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                         env->NewRandomAccessFile(segment.path));
  auto damaged = [&](uint64_t offset) -> StatusOr<TornAt> {
    if (!newest) {
      return Status::Corruption("damage at offset " + std::to_string(offset) +
                                " of sealed wal segment " + segment.path);
    }
    return TornAt(offset);
  };
  char header[kSegmentHeaderSize];
  size_t got = 0;
  KANON_RETURN_IF_ERROR(file->ReadAt(0, header, sizeof(header), &got));
  // A short header is a crash between segment creation and its fsync.
  if (got != sizeof(header)) return damaged(0);
  uint64_t first_lsn = 0;
  {
    const Status s = DecodeHeader(header, dim, &first_lsn);
    if (s.code() == StatusCode::kCorruption) return damaged(0);
    KANON_RETURN_IF_ERROR(s);
  }
  WalEntry entry(dim);
  std::vector<char> raw(EntrySize(dim));
  for (uint64_t offset = sizeof(header);; offset += raw.size()) {
    KANON_RETURN_IF_ERROR(file->ReadAt(offset, raw.data(), raw.size(), &got));
    if (got == 0) return TornAt();  // clean end of segment
    const std::string_view bytes(raw.data(), got);
    const StatusOr<bool> intact =
        DecodeEntry(bytes, first_lsn, prev_lsn, &entry);
    if (!intact.ok()) {
      return Status::Corruption(intact.status().message() + " in " +
                                segment.path);
    }
    if (!*intact) return damaged(offset);
    if (!visit(entry, bytes)) return TornAt();
  }
}

}  // namespace

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir,
                                                     size_t dim,
                                                     uint64_t next_lsn,
                                                     WalOptions options,
                                                     Env* env) {
  KANON_CHECK(next_lsn >= 1);
  if (env == nullptr) env = Env::Default();
  KANON_RETURN_IF_ERROR(env->CreateDirs(dir));
  std::unique_ptr<WalWriter> writer(new WalWriter(dir, dim, options, env));
  writer->entry_buf_.resize(EntrySize(dim));
  writer->last_lsn_ = next_lsn - 1;
  writer->synced_lsn_.store(next_lsn - 1, std::memory_order_relaxed);
  KANON_RETURN_IF_ERROR(writer->OpenSegment(next_lsn));
  return writer;
}

Status WalWriter::OpenSegment(uint64_t first_lsn) {
  if (file_ != nullptr) {
    const Status close = file_->Close();
    file_.reset();
    if (!close.ok()) return close;
  }
  const std::string path = JoinPath(dir_, SegmentName(first_lsn));
  // Truncate: any prior file of this name held only bytes that recovery
  // already discarded (otherwise next_lsn would be higher).
  KANON_ASSIGN_OR_RETURN(file_, env_->NewWritableFile(path));
  segment_path_ = path;
  char header[kSegmentHeaderSize];
  EncodeHeader(header, dim_, first_lsn);
  KANON_RETURN_IF_ERROR(file_->Append(header, sizeof(header)));
  // Make the segment's existence itself durable before logging into it. A
  // sync failure here poisons the writer like any other: the new segment's
  // durable state is unknown.
  KANON_RETURN_IF_ERROR(SyncFile());
  KANON_RETURN_IF_ERROR(env_->SyncDir(dir_));
  segment_bytes_written_ = sizeof(header);
  synced_segment_bytes_ = sizeof(header);
  segments_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(sizeof(header), std::memory_order_relaxed);
  return Status::OK();
}

Status WalWriter::RecoverSegment() {
  // A write failed somewhere past the durable prefix: the file may hold a
  // torn entry, and the user-space buffer may hold bytes that never reached
  // it. Quarantine rather than patch: cut the segment back to its last
  // fsynced boundary (always an entry boundary), rotate, and re-log the
  // appended-but-unsynced entries from their in-memory copy. This keeps the
  // sealed-segment invariant — replay may treat damage in any non-final
  // segment as hard corruption — and keeps LSNs dense.
  if (file_ != nullptr) {
    (void)file_->Close();  // dropping buffered bytes is the point
    file_.reset();
  }
  KANON_RETURN_IF_ERROR(
      env_->TruncateFile(segment_path_, synced_segment_bytes_));
  const uint64_t synced = synced_lsn_.load(std::memory_order_relaxed);
  KANON_RETURN_IF_ERROR(OpenSegment(synced + 1));
  if (!unsynced_entries_.empty()) {
    KANON_RETURN_IF_ERROR(
        file_->Append(unsynced_entries_.data(), unsynced_entries_.size()));
    segment_bytes_written_ += unsynced_entries_.size();
    bytes_.fetch_add(unsynced_entries_.size(), std::memory_order_relaxed);
  }
  // Prove the re-logged entries durable immediately so the writer resumes
  // from a fully known state (and so a second fault during the rewrite
  // surfaces now, not at an arbitrary later sync).
  KANON_RETURN_IF_ERROR(SyncInternal());
  needs_recovery_ = false;
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WalWriter::Append(uint64_t lsn, std::span<const double> point,
                         int32_t sensitive) {
  if (poisoned()) {
    return Status::IoError("wal poisoned by failed fsync (segment " +
                           segment_path_ + ")");
  }
  KANON_CHECK(point.size() == dim_);
  if (needs_recovery_) KANON_RETURN_IF_ERROR(RecoverSegment());
  KANON_CHECK_MSG(lsn == last_lsn_ + 1, "wal LSNs must be dense");
  if (segment_bytes_written_ >= options_.segment_bytes) {
    // Rotation seals the old segment: sync it so ReplayWal may treat any
    // damage there as bit rot rather than a torn tail.
    KANON_RETURN_IF_ERROR(SyncInternal());
    const Status open = OpenSegment(lsn);
    if (!open.ok()) {
      // The new segment is in an unknown partial state (possibly a torn
      // header, possibly no file at all); a retry must rebuild it.
      needs_recovery_ = true;
      return open;
    }
  }
  EncodeEntry(lsn, point, sensitive, entry_buf_.data());
  {
    const Status append =
        file_->Append(entry_buf_.data(), entry_buf_.size());
    if (!append.ok()) {
      // The entry did not advance the log's logical state (last_lsn_ is
      // untouched); the caller may retry this same LSN after recovery.
      needs_recovery_ = true;
      return append;
    }
  }
  segment_bytes_written_ += entry_buf_.size();
  last_lsn_ = lsn;
  unsynced_entries_.insert(unsynced_entries_.end(), entry_buf_.begin(),
                           entry_buf_.end());
  appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(entry_buf_.size(), std::memory_order_relaxed);
  if (options_.fsync_every > 0 && ++unsynced_ >= options_.fsync_every) {
    KANON_RETURN_IF_ERROR(SyncInternal());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (poisoned()) {
    return Status::IoError("wal poisoned by failed fsync (segment " +
                           segment_path_ + ")");
  }
  // RecoverSegment ends with its own sync, so recovery alone completes this
  // call's contract.
  if (needs_recovery_) return RecoverSegment();
  return SyncInternal();
}

Status WalWriter::SyncFile() {
  const Status sync = file_->Sync();
  // fsync-gate: the kernel may have dropped the dirty pages on failure, so
  // retrying fsync on this fd can report success without the data ever
  // reaching disk. The writer is done; only entries at or below the current
  // synced_lsn are proven durable.
  if (!sync.ok()) poisoned_.store(true, std::memory_order_release);
  return sync;
}

Status WalWriter::SyncInternal() {
  KANON_RETURN_IF_ERROR(SyncFile());
  synced_segment_bytes_ = segment_bytes_written_;
  unsynced_entries_.clear();
  unsynced_ = 0;
  syncs_.fetch_add(1, std::memory_order_relaxed);
  synced_lsn_.store(last_lsn_, std::memory_order_release);
  return Status::OK();
}

WalStats WalWriter::stats() const {
  WalStats stats;
  stats.appended = appended_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.syncs = syncs_.load(std::memory_order_relaxed);
  stats.segments = segments_.load(std::memory_order_relaxed);
  stats.synced_lsn = synced_lsn_.load(std::memory_order_acquire);
  stats.recoveries = recoveries_.load(std::memory_order_relaxed);
  return stats;
}

Status ReplayWal(
    const std::string& dir, size_t dim, uint64_t from_lsn,
    const std::function<void(uint64_t lsn, std::span<const double> point,
                             int32_t sensitive)>& apply,
    WalReplayResult* result, Env* env) {
  if (env == nullptr) env = Env::Default();
  *result = WalReplayResult();
  KANON_ASSIGN_OR_RETURN(const std::vector<SegmentFile> segments,
                         ListSegments(dir, env));
  result->segments = segments.size();
  auto deliver = [&](const WalEntry& entry, std::string_view) {
    if (entry.lsn < from_lsn) {
      ++result->skipped;
    } else {
      apply(entry.lsn, entry.point, entry.sensitive);
      ++result->replayed;
    }
    return true;
  };
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool newest = i + 1 == segments.size();
    KANON_ASSIGN_OR_RETURN(const TornAt torn_at,
                           ScanSegment(segments[i], dim, newest,
                                       &result->max_lsn, deliver, env));
    if (torn_at) {
      // A crash mid-append: cut the newest segment back to its intact
      // prefix so the next replay and the next writer see a clean log.
      const std::string& path = segments[i].path;
      KANON_ASSIGN_OR_RETURN(const uint64_t size, env->FileSize(path));
      result->truncated_tail = true;
      result->truncated_bytes += size - *torn_at;
      KANON_RETURN_IF_ERROR(env->TruncateFile(path, *torn_at));
    }
  }
  return Status::OK();
}

StatusOr<WalRangeResult> ReadWalRange(const std::string& dir, size_t dim,
                                      uint64_t from_lsn, uint64_t max_lsn,
                                      size_t max_bytes, Env* env) {
  if (env == nullptr) env = Env::Default();
  KANON_CHECK(from_lsn >= 1);
  WalRangeResult result;
  KANON_ASSIGN_OR_RETURN(const std::vector<SegmentFile> segments,
                         ListSegments(dir, env));
  if (segments.empty()) return result;
  result.oldest_lsn = segments[0].first_lsn;
  if (from_lsn < result.oldest_lsn) {
    return Status::NotFound(
        "wal entries before lsn " + std::to_string(result.oldest_lsn) +
        " were truncated by a checkpoint; bootstrap from a newer checkpoint");
  }

  uint64_t prev_lsn = 0;
  bool done = false;
  auto take = [&](const WalEntry& entry, std::string_view raw) {
    done = entry.lsn > max_lsn;
    if (!done && entry.lsn >= from_lsn) {
      if (result.first_lsn == 0) result.first_lsn = entry.lsn;
      result.last_lsn = entry.lsn;
      result.frames.append(raw);
      done = result.frames.size() >= max_bytes;
    }
    return !done;
  };
  for (size_t i = 0; i < segments.size() && !done; ++i) {
    // Entirely below the requested range: every entry here has an LSN below
    // the next segment's first.
    if (i + 1 < segments.size() && segments[i + 1].first_lsn <= from_lsn) {
      continue;
    }
    // A torn end of the newest segment is an in-flight append: the scan
    // stops before it. The caller's max_lsn (<= synced_lsn) keeps
    // everything shipped on the fully fsynced prefix.
    const bool newest = i + 1 == segments.size();
    KANON_RETURN_IF_ERROR(
        ScanSegment(segments[i], dim, newest, &prev_lsn, take, env).status());
  }
  return result;
}

Status DecodeWalFrames(
    std::string_view frames, size_t dim,
    const std::function<void(uint64_t lsn, std::span<const double> point,
                             int32_t sensitive)>& apply) {
  WalEntry entry(dim);
  uint64_t prev_lsn = 0;
  for (size_t off = 0; off < frames.size(); off += EntrySize(dim)) {
    KANON_ASSIGN_OR_RETURN(
        const bool intact,
        DecodeEntry(frames.substr(off), /*first_lsn=*/0, &prev_lsn, &entry));
    if (!intact) {
      return Status::Corruption("damaged wal frame at byte " +
                                std::to_string(off));
    }
    apply(entry.lsn, entry.point, entry.sensitive);
  }
  return Status::OK();
}

StatusOr<size_t> TruncateWalBefore(const std::string& dir,
                                   uint64_t checkpoint_lsn, Env* env) {
  if (env == nullptr) env = Env::Default();
  KANON_ASSIGN_OR_RETURN(const std::vector<SegmentFile> segments,
                         ListSegments(dir, env));
  size_t removed = 0;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first_lsn > checkpoint_lsn + 1) break;
    KANON_RETURN_IF_ERROR(env->RemoveFile(segments[i].path));
    ++removed;
  }
  if (removed > 0) KANON_RETURN_IF_ERROR(env->SyncDir(dir));
  return removed;
}

}  // namespace kanon
