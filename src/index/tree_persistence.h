#ifndef KANON_INDEX_TREE_PERSISTENCE_H_
#define KANON_INDEX_TREE_PERSISTENCE_H_

#include "common/status.h"
#include "index/rplus_tree.h"
#include "storage/pager.h"

namespace kanon {

/// Serialized-tree metadata returned by SaveTree and consumed by LoadTree.
struct TreeSnapshot {
  PageId first_page = kInvalidPageId;
  size_t byte_size = 0;
  size_t record_count = 0;
  /// CRC32 of the logical byte stream. LoadTree re-computes it while
  /// reading and rejects any mismatch; 0 is a checksum like any other.
  uint32_t crc32 = 0;
};

/// Persists an R⁺-tree into a chain of pager pages (a depth-first byte
/// stream: regions, MBRs, leaf payloads). The anonymizing index can thus
/// outlive the process — re-opening it restores incremental anonymization
/// exactly where it stopped, with the same leaf partitioning (hence the
/// same published equivalence classes and k-bound groups).
StatusOr<TreeSnapshot> SaveTree(const RPlusTree& tree, Pager* pager);

/// Restores a tree saved by SaveTree. `config` must match the structural
/// parameters the tree was built with (it is validated against the stored
/// header where possible). Damaged bytes return Corruption: no read goes
/// past `snapshot.byte_size`, no leaf is sized beyond the bytes left, and
/// the stream's CRC must equal `snapshot.crc32`.
StatusOr<RPlusTree> LoadTree(Pager* pager, const TreeSnapshot& snapshot,
                             size_t dim, const RTreeConfig& config);

/// Saves `tree` as the sole content of the named file (the snapshot starts
/// at page 0) and fsyncs it before returning — the checkpoint primitive of
/// the durability subsystem (src/durability/checkpoint.h). `env` = nullptr
/// uses Env::Default().
StatusOr<TreeSnapshot> SaveTreeToFile(const RPlusTree& tree,
                                      const std::string& path,
                                      size_t page_size = kDefaultPageSize,
                                      Env* env = nullptr);

}  // namespace kanon

#endif  // KANON_INDEX_TREE_PERSISTENCE_H_
