#include "index/tree_persistence.h"

#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"

namespace kanon {

namespace {

constexpr uint32_t kTreeMagic = 0x6b414e54;  // "kANT"

/// Sequential byte-stream writer over chained pager pages. Each page
/// starts with the PageId of its successor (kInvalidPageId on the tail)
/// followed by payload bytes.
class PageStreamWriter {
 public:
  explicit PageStreamWriter(Pager* pager)
      : pager_(pager), buffer_(pager->page_size()) {
    current_ = pager_->Allocate();
    first_ = current_;
    ResetBuffer();
  }

  PageId first_page() const { return first_; }
  size_t bytes_written() const { return bytes_written_; }
  uint32_t crc() const { return crc_; }

  Status Write(const void* data, size_t n) {
    crc_ = Crc32(data, n, crc_);
    const char* src = static_cast<const char*>(data);
    while (n > 0) {
      if (offset_ == buffer_.size()) {
        KANON_RETURN_IF_ERROR(FlushPage(/*more=*/true));
      }
      const size_t take = std::min(n, buffer_.size() - offset_);
      std::memcpy(buffer_.data() + offset_, src, take);
      offset_ += take;
      src += take;
      n -= take;
      bytes_written_ += take;
    }
    return Status::OK();
  }

  template <typename T>
  Status WriteValue(const T& v) {
    return Write(&v, sizeof(v));
  }

  Status Finish() { return FlushPage(/*more=*/false); }

 private:
  void ResetBuffer() {
    const PageId invalid = kInvalidPageId;
    std::memcpy(buffer_.data(), &invalid, sizeof(invalid));
    offset_ = sizeof(PageId);
  }

  Status FlushPage(bool more) {
    PageId next = kInvalidPageId;
    if (more) {
      next = pager_->Allocate();
      std::memcpy(buffer_.data(), &next, sizeof(next));
    }
    KANON_RETURN_IF_ERROR(pager_->Write(current_, buffer_.data()));
    if (more) {
      current_ = next;
      ResetBuffer();
    }
    return Status::OK();
  }

  Pager* pager_;
  std::vector<char> buffer_;
  PageId first_ = kInvalidPageId;
  PageId current_ = kInvalidPageId;
  size_t offset_ = 0;
  size_t bytes_written_ = 0;
  uint32_t crc_ = 0;
};

/// Counterpart reader. It serves at most `byte_size` bytes — the length
/// SaveTree wrote — so a damaged length field cannot read past the stream.
class PageStreamReader {
 public:
  PageStreamReader(Pager* pager, PageId first, size_t byte_size)
      : pager_(pager),
        buffer_(pager->page_size()),
        next_(first),
        remaining_(byte_size) {}

  uint32_t crc() const { return crc_; }
  size_t remaining() const { return remaining_; }

  Status Read(void* data, size_t n) {
    if (n > remaining_) {
      return Status::Corruption("tree snapshot read past its byte size");
    }
    remaining_ -= n;
    const size_t total = n;
    char* dst = static_cast<char*>(data);
    while (n > 0) {
      if (offset_ == 0 || offset_ == buffer_.size()) {
        KANON_RETURN_IF_ERROR(LoadNextPage());
      }
      const size_t take = std::min(n, buffer_.size() - offset_);
      std::memcpy(dst, buffer_.data() + offset_, take);
      offset_ += take;
      dst += take;
      n -= take;
    }
    crc_ = Crc32(data, total, crc_);
    return Status::OK();
  }

  template <typename T>
  Status ReadValue(T* v) {
    return Read(v, sizeof(*v));
  }

 private:
  Status LoadNextPage() {
    if (next_ == kInvalidPageId) {
      return Status::Corruption("tree snapshot stream truncated");
    }
    KANON_RETURN_IF_ERROR(pager_->Read(next_, buffer_.data()));
    std::memcpy(&next_, buffer_.data(), sizeof(next_));
    offset_ = sizeof(PageId);
    return Status::OK();
  }

  Pager* pager_;
  std::vector<char> buffer_;
  PageId next_;
  size_t remaining_;
  size_t offset_ = 0;
  uint32_t crc_ = 0;
};

Status WriteBounds(PageStreamWriter* w, std::span<const double> values) {
  return w->Write(values.data(), values.size() * sizeof(double));
}

Status WriteNode(PageStreamWriter* w, const Node& node, size_t dim) {
  const uint8_t leaf_flag = node.is_leaf ? 1 : 0;
  KANON_RETURN_IF_ERROR(w->WriteValue(leaf_flag));
  const BoxView region = node.region();
  KANON_RETURN_IF_ERROR(WriteBounds(w, region.lo));
  KANON_RETURN_IF_ERROR(WriteBounds(w, region.hi));
  const BoxView mbr = node.mbr();
  const uint8_t mbr_empty = mbr.empty() ? 1 : 0;
  KANON_RETURN_IF_ERROR(w->WriteValue(mbr_empty));
  if (!mbr_empty) {
    KANON_RETURN_IF_ERROR(WriteBounds(w, mbr.lo));
    KANON_RETURN_IF_ERROR(WriteBounds(w, mbr.hi));
  }
  if (node.is_leaf) {
    const uint64_t count = node.leaf_size();
    KANON_RETURN_IF_ERROR(w->WriteValue(count));
    KANON_RETURN_IF_ERROR(
        w->Write(node.rids().data(), count * sizeof(uint64_t)));
    KANON_RETURN_IF_ERROR(
        w->Write(node.sensitive().data(), count * sizeof(int32_t)));
    KANON_RETURN_IF_ERROR(
        w->Write(node.points().data(), count * dim * sizeof(double)));
    return Status::OK();
  }
  const uint64_t fanout = node.fanout();
  KANON_RETURN_IF_ERROR(w->WriteValue(fanout));
  for (const auto& child : node.children) {
    KANON_RETURN_IF_ERROR(WriteNode(w, *child, dim));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Node>> ReadNode(PageStreamReader* r, size_t dim,
                                         size_t max_fanout) {
  uint8_t leaf_flag = 0;
  KANON_RETURN_IF_ERROR(r->ReadValue(&leaf_flag));
  if (leaf_flag > 1) return Status::Corruption("bad node tag");
  Region region;
  region.lo.resize(dim);
  region.hi.resize(dim);
  KANON_RETURN_IF_ERROR(r->Read(region.lo.data(), dim * sizeof(double)));
  KANON_RETURN_IF_ERROR(r->Read(region.hi.data(), dim * sizeof(double)));
  uint8_t mbr_empty = 0;
  KANON_RETURN_IF_ERROR(r->ReadValue(&mbr_empty));
  Mbr mbr(dim);
  if (!mbr_empty) {
    std::vector<double> lo(dim), hi(dim);
    KANON_RETURN_IF_ERROR(r->Read(lo.data(), dim * sizeof(double)));
    KANON_RETURN_IF_ERROR(r->Read(hi.data(), dim * sizeof(double)));
    mbr = Mbr::FromBounds(std::move(lo), std::move(hi));
  }
  if (leaf_flag == 1) {
    uint64_t count = 0;
    KANON_RETURN_IF_ERROR(r->ReadValue(&count));
    const size_t record_bytes =
        sizeof(uint64_t) + sizeof(int32_t) + dim * sizeof(double);
    if (count > r->remaining() / record_bytes) {
      return Status::Corruption("leaf record count exceeds the snapshot");
    }
    std::vector<uint64_t> rids(count);
    std::vector<int32_t> sensitive(count);
    std::vector<double> points(count * dim);
    KANON_RETURN_IF_ERROR(r->Read(rids.data(), count * sizeof(uint64_t)));
    KANON_RETURN_IF_ERROR(
        r->Read(sensitive.data(), count * sizeof(int32_t)));
    KANON_RETURN_IF_ERROR(
        r->Read(points.data(), count * dim * sizeof(double)));
    // Appending rebuilds the MBR from the records; a stored MBR that
    // disagrees with them is corrupt.
    auto block = LeafBlock::Make(region.view(), count);
    for (size_t i = 0; i < count; ++i) {
      block->Append({points.data() + i * dim, dim}, rids[i], sensitive[i]);
    }
    if (!(Mbr::FromView(block->mbr()) == mbr)) {
      return Status::Corruption("leaf MBR does not match its records");
    }
    return Node::Leaf(std::move(block));
  }
  auto node = Node::Internal(std::move(region));
  node->inner_mbr() = std::move(mbr);
  uint64_t fanout = 0;
  KANON_RETURN_IF_ERROR(r->ReadValue(&fanout));
  if (fanout == 0 || fanout > max_fanout + 1) {
    return Status::Corruption("implausible internal fanout");
  }
  for (uint64_t i = 0; i < fanout; ++i) {
    KANON_ASSIGN_OR_RETURN(auto child, ReadNode(r, dim, max_fanout));
    child->parent = node.get();
    node->record_count += child->record_count;
    node->children.push_back(std::move(child));
  }
  return node;
}

}  // namespace

StatusOr<TreeSnapshot> SaveTree(const RPlusTree& tree, Pager* pager) {
  PageStreamWriter writer(pager);
  KANON_RETURN_IF_ERROR(writer.WriteValue(kTreeMagic));
  const uint64_t dim = tree.dim();
  const uint64_t min_leaf = tree.config().min_leaf;
  const uint64_t max_leaf = tree.config().max_leaf;
  const uint64_t max_fanout = tree.config().max_fanout;
  const uint64_t records = tree.size();
  KANON_RETURN_IF_ERROR(writer.WriteValue(dim));
  KANON_RETURN_IF_ERROR(writer.WriteValue(min_leaf));
  KANON_RETURN_IF_ERROR(writer.WriteValue(max_leaf));
  KANON_RETURN_IF_ERROR(writer.WriteValue(max_fanout));
  KANON_RETURN_IF_ERROR(writer.WriteValue(records));
  KANON_RETURN_IF_ERROR(WriteNode(&writer, *tree.root(), tree.dim()));
  KANON_RETURN_IF_ERROR(writer.Finish());
  TreeSnapshot snapshot;
  snapshot.first_page = writer.first_page();
  snapshot.byte_size = writer.bytes_written();
  snapshot.record_count = tree.size();
  snapshot.crc32 = writer.crc();
  return snapshot;
}

StatusOr<RPlusTree> LoadTree(Pager* pager, const TreeSnapshot& snapshot,
                             size_t dim, const RTreeConfig& config) {
  PageStreamReader reader(pager, snapshot.first_page, snapshot.byte_size);
  uint32_t magic = 0;
  KANON_RETURN_IF_ERROR(reader.ReadValue(&magic));
  if (magic != kTreeMagic) return Status::Corruption("not a tree snapshot");
  uint64_t stored_dim, min_leaf, max_leaf, max_fanout, records;
  KANON_RETURN_IF_ERROR(reader.ReadValue(&stored_dim));
  KANON_RETURN_IF_ERROR(reader.ReadValue(&min_leaf));
  KANON_RETURN_IF_ERROR(reader.ReadValue(&max_leaf));
  KANON_RETURN_IF_ERROR(reader.ReadValue(&max_fanout));
  KANON_RETURN_IF_ERROR(reader.ReadValue(&records));
  if (stored_dim != dim) {
    return Status::InvalidArgument("snapshot dimensionality mismatch");
  }
  if (min_leaf != config.min_leaf || max_leaf != config.max_leaf ||
      max_fanout != config.max_fanout) {
    return Status::InvalidArgument(
        "snapshot was built with different structural parameters");
  }
  KANON_ASSIGN_OR_RETURN(auto root,
                         ReadNode(&reader, dim, config.max_fanout));
  if (root->record_count != records) {
    return Status::Corruption("snapshot record count mismatch");
  }
  if (reader.crc() != snapshot.crc32) {
    return Status::Corruption("tree snapshot failed checksum verification");
  }
  return RPlusTree::FromRoot(dim, config, std::move(root));
}

StatusOr<TreeSnapshot> SaveTreeToFile(const RPlusTree& tree,
                                      const std::string& path,
                                      size_t page_size, Env* env) {
  KANON_ASSIGN_OR_RETURN(auto pager,
                         FilePager::Open(path, page_size,
                                         /*truncate=*/true, env));
  KANON_ASSIGN_OR_RETURN(TreeSnapshot snapshot, SaveTree(tree, pager.get()));
  KANON_CHECK(snapshot.first_page == 0);  // fresh pager allocates from 0
  KANON_RETURN_IF_ERROR(pager->Sync());
  return snapshot;
}

}  // namespace kanon
