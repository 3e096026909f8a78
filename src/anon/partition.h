#ifndef KANON_ANON_PARTITION_H_
#define KANON_ANON_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "index/mbr.h"

namespace kanon {

/// One equivalence class of an anonymized table: the records it contains and
/// the generalized quasi-identifier value that replaces theirs (a closed
/// box; interval per numeric attribute, code range per categorical).
struct Partition {
  std::vector<RecordId> rids;
  Mbr box;

  size_t size() const { return rids.size(); }
};

/// A partition without its record ids: how many records it holds and its
/// box. Everything a release body shows unless the client asks for rids.
struct PartitionBox {
  size_t records = 0;
  Mbr box;

  size_t size() const { return records; }
};

/// A complete anonymization of a dataset.
struct PartitionSet {
  std::vector<Partition> partitions;

  size_t num_partitions() const { return partitions.size(); }
  size_t total_records() const;
  size_t min_partition_size() const;
  size_t max_partition_size() const;

  /// Every record 0..n-1 appears in exactly one partition, and lies inside
  /// that partition's box.
  Status CheckCovers(const Dataset& dataset) const;

  /// Every partition holds at least k records.
  Status CheckKAnonymous(size_t k) const;
};

/// Inverse map: record id -> index of its partition. `n` is the dataset
/// size; records not covered map to UINT32_MAX (CheckCovers rejects that).
std::vector<uint32_t> RecordToPartition(const PartitionSet& ps, size_t n);

}  // namespace kanon

#endif  // KANON_ANON_PARTITION_H_
