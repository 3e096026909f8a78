#include "anon/multigranular.h"

#include <limits>
#include <unordered_map>

namespace kanon {

namespace {

void CollectSubtreeRecords(const Node* node, Partition* out) {
  if (node->is_leaf) {
    const auto rids = node->rids();
    out->rids.insert(out->rids.end(), rids.begin(), rids.end());
    return;
  }
  for (const auto& c : node->children) CollectSubtreeRecords(c.get(), out);
}

}  // namespace

PartitionSet ReleaseAtDepth(const RPlusTree& tree, int depth) {
  PartitionSet out;
  for (const Node* n : tree.NodesAtDepth(depth)) {
    if (n->record_count == 0) continue;
    Partition p;
    // The subtree MBR is the compacted generalized value.
    p.box = Mbr::FromView(n->mbr());
    CollectSubtreeRecords(n, &p);
    out.partitions.push_back(std::move(p));
  }
  return out;
}

std::vector<PartitionSet> HierarchicalReleases(const RPlusTree& tree) {
  std::vector<PartitionSet> releases;
  for (int depth = tree.height() - 1; depth >= 0; --depth) {
    releases.push_back(ReleaseAtDepth(tree, depth));
  }
  return releases;
}

Status VerifyKBound(const PartitionSet& base_leaves,
                    std::span<const PartitionSet> releases, size_t k,
                    size_t num_records) {
  // Every base leaf must itself satisfy the anonymity floor.
  KANON_RETURN_IF_ERROR(base_leaves.CheckKAnonymous(k));

  std::vector<uint32_t> leaf_of = RecordToPartition(base_leaves, num_records);
  for (RecordId r = 0; r < num_records; ++r) {
    if (leaf_of[r] == std::numeric_limits<uint32_t>::max()) {
      return Status::FailedPrecondition("record not covered by base leaves");
    }
  }

  for (const PartitionSet& release : releases) {
    for (const Partition& p : release.partitions) {
      // Count how many members of each base leaf appear in this partition;
      // k-boundness requires all-or-nothing membership.
      std::unordered_map<uint32_t, size_t> members;
      for (RecordId r : p.rids) {
        if (r >= num_records) {
          return Status::FailedPrecondition("release references unknown rid");
        }
        ++members[leaf_of[r]];
      }
      for (const auto& [leaf_idx, count] : members) {
        if (count != base_leaves.partitions[leaf_idx].size()) {
          return Status::FailedPrecondition(
              "partition splits a base leaf: record set is not a union of "
              "whole leaves (k-bound violated)");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace kanon
