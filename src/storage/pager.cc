#include "storage/pager.h"

#include <cstring>

#include "common/check.h"
#include "common/crc32.h"

namespace kanon {

PageId Pager::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  KANON_CHECK(num_pages_ < kInvalidPageId);
  return static_cast<PageId>(num_pages_++);
}

void Pager::Free(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  KANON_DCHECK(id < num_pages_);
  // Contents are undefined after a Free; a future reader of the recycled
  // page must not be compared against the stale checksum.
  if (id < checksummed_.size()) checksummed_[id] = 0;
  free_list_.push_back(id);
}

Status Pager::Read(PageId id, char* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.reads;
  KANON_RETURN_IF_ERROR(DoRead(id, buf));
  if (verify_checksums_ && id < checksummed_.size() && checksummed_[id] &&
      Crc32(buf, page_size_) != checksums_[id]) {
    return Status::Corruption("page " + std::to_string(id) +
                              " failed checksum verification");
  }
  return Status::OK();
}

Status Pager::Write(PageId id, const char* buf) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.writes;
  if (id >= checksummed_.size()) {
    checksummed_.resize(id + 1, 0);
    checksums_.resize(id + 1, 0);
  }
  checksums_[id] = Crc32(buf, page_size_);
  checksummed_[id] = 1;
  return DoWrite(id, buf);
}

StatusOr<std::unique_ptr<FilePager>> FilePager::Create(size_t page_size,
                                                       const std::string& dir,
                                                       Env* env) {
  if (env == nullptr) env = Env::Default();
  KANON_ASSIGN_OR_RETURN(auto file, env->NewTempRWFile(dir));
  return std::unique_ptr<FilePager>(new FilePager(page_size, std::move(file)));
}

StatusOr<std::unique_ptr<FilePager>> FilePager::Open(
    const std::string& path, size_t page_size, bool truncate, Env* env) {
  if (env == nullptr) env = Env::Default();
  KANON_ASSIGN_OR_RETURN(auto file, env->NewRandomRWFile(path, truncate));
  std::unique_ptr<FilePager> pager(new FilePager(page_size, std::move(file)));
  if (!truncate) {
    KANON_ASSIGN_OR_RETURN(const uint64_t size, env->FileSize(path));
    pager->num_pages_ =
        (static_cast<size_t>(size) + page_size - 1) / page_size;
  }
  return pager;
}

Status FilePager::Sync() { return file_->Sync(); }

Status FilePager::DoRead(PageId id, char* buf) {
  size_t n = 0;
  KANON_RETURN_IF_ERROR(file_->ReadAt(
      static_cast<uint64_t>(id) * page_size_, buf, page_size_, &n));
  // Reading a page that was allocated but never written: return zeros.
  if (n != page_size_) std::memset(buf + n, 0, page_size_ - n);
  return Status::OK();
}

Status FilePager::DoWrite(PageId id, const char* buf) {
  return file_->WriteAt(static_cast<uint64_t>(id) * page_size_, buf,
                        page_size_);
}

Status MemPager::DoRead(PageId id, char* buf) {
  if (id >= pages_.size() || pages_[id] == nullptr) {
    std::memset(buf, 0, page_size_);
    return Status::OK();
  }
  std::memcpy(buf, pages_[id].get(), page_size_);
  return Status::OK();
}

Status MemPager::DoWrite(PageId id, const char* buf) {
  if (id >= pages_.size()) pages_.resize(id + 1);
  if (pages_[id] == nullptr) pages_[id] = std::make_unique<char[]>(page_size_);
  std::memcpy(pages_[id].get(), buf, page_size_);
  return Status::OK();
}

}  // namespace kanon
