#ifndef KANON_STORAGE_PAGER_H_
#define KANON_STORAGE_PAGER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "storage/page.h"

namespace kanon {

/// Counts of explicit page I/O operations issued to the backing store —
/// exactly what the paper's Figure 8(b) reports ("the total number of
/// explicit I/O system calls made during the anonymization process").
struct PagerStats {
  uint64_t reads = 0;
  uint64_t writes = 0;

  uint64_t total() const { return reads + writes; }
};

/// Page-granular backing store. Two implementations: a file pager (temp
/// file or named durable artifact), and an in-memory pager
/// (identical accounting, used by unit tests and by benches that want
/// repeatable timings without disk noise).
///
/// Every page is CRC32-checksummed on Write and verified on Read, so bit
/// rot in the backing store surfaces as a Corruption Status instead of
/// silently returning garbage records. Pages that were never written (or
/// were freed, making their contents undefined) are not verified.
///
/// Allocate/Free/Read/Write are thread-safe (one internal mutex), so
/// several BufferPools — each still single-threaded — can share one
/// backing store from concurrent threads. stats()/ResetStats() and
/// set_verify_checksums() are for quiesced use: call them only when no
/// other thread is inside the pager.
class Pager {
 public:
  virtual ~Pager() = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  size_t page_size() const { return page_size_; }
  const PagerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PagerStats(); }

  /// Allocates a fresh page (contents undefined until first write). Reuses
  /// freed pages when available.
  PageId Allocate();

  /// Returns a page to the free list.
  void Free(PageId id);

  /// Number of pages ever allocated (high-water mark).
  size_t num_pages() const { return num_pages_; }

  Status Read(PageId id, char* buf);
  Status Write(PageId id, const char* buf);

  /// Disables read-side checksum verification (checksums are still
  /// recorded). Only the fault-injection harness, which feeds deliberately
  /// inconsistent pages, should need this.
  void set_verify_checksums(bool verify) { verify_checksums_ = verify; }
  bool verify_checksums() const { return verify_checksums_; }

 protected:
  explicit Pager(size_t page_size) : page_size_(page_size) {}

  virtual Status DoRead(PageId id, char* buf) = 0;
  virtual Status DoWrite(PageId id, const char* buf) = 0;

  size_t page_size_;
  PagerStats stats_;
  size_t num_pages_ = 0;
  std::vector<PageId> free_list_;

 private:
  std::mutex mu_;  // guards all mutable pager state across threads
  bool verify_checksums_ = true;
  std::vector<uint32_t> checksums_;   // indexed by PageId
  std::vector<uint8_t> checksummed_;  // 1 iff checksums_[id] is meaningful
};

/// Pager over a file, with all I/O through the Env so fault-injection
/// harnesses can interpose on it. Create() backs it with an anonymous temp
/// file (unlinked on open, so it vanishes with the process); Open() with a
/// named file that outlives the process — the backing store of durable
/// artifacts (tree checkpoints, see src/durability/), made crash-durable by
/// Sync(). I/O is unbuffered positional pread/pwrite, so a Sync() never
/// races a stale user buffer.
class FilePager : public Pager {
 public:
  /// Creates a pager over a temp file in `dir` ("" = system default).
  /// `env` = nullptr uses Env::Default().
  static StatusOr<std::unique_ptr<FilePager>> Create(
      size_t page_size = kDefaultPageSize, const std::string& dir = "",
      Env* env = nullptr);

  /// Opens `path`, creating the file when missing. With `truncate` any
  /// existing contents are discarded (fresh checkpoint); without it the
  /// existing pages are addressable (recovery reads them back).
  static StatusOr<std::unique_ptr<FilePager>> Open(
      const std::string& path, size_t page_size = kDefaultPageSize,
      bool truncate = false, Env* env = nullptr);

  /// fsyncs the backing file; the Status is the durability evidence.
  Status Sync();

 private:
  FilePager(size_t page_size, std::unique_ptr<RandomRWFile> file)
      : Pager(page_size), file_(std::move(file)) {}

  Status DoRead(PageId id, char* buf) override;
  Status DoWrite(PageId id, const char* buf) override;

  std::unique_ptr<RandomRWFile> file_;
};

/// Pager over heap memory with identical I/O accounting.
class MemPager : public Pager {
 public:
  explicit MemPager(size_t page_size = kDefaultPageSize)
      : Pager(page_size) {}

 private:
  Status DoRead(PageId id, char* buf) override;
  Status DoWrite(PageId id, const char* buf) override;

  std::vector<std::unique_ptr<char[]>> pages_;
};

}  // namespace kanon

#endif  // KANON_STORAGE_PAGER_H_
