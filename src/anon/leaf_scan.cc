#include "anon/leaf_scan.h"

#include <algorithm>

namespace kanon {

Mbr ClipRegionToDomain(BoxView region, const Domain& domain) {
  std::vector<double> lo(region.dim()), hi(region.dim());
  for (size_t d = 0; d < region.dim(); ++d) {
    lo[d] = std::max(region.lo[d], domain.lo[d]);
    hi[d] = std::min(region.hi[d], domain.hi[d]);
    if (lo[d] > hi[d]) lo[d] = hi[d];  // region beyond the data: collapse
  }
  return Mbr::FromBounds(std::move(lo), std::move(hi));
}

std::vector<LeafGroup> ExtractLeafGroups(const RPlusTree& tree,
                                         const Domain* domain) {
  std::vector<LeafGroup> out;
  if (tree.size() == 0) return out;  // a lone empty root leaf is no group
  for (const Node* leaf : tree.OrderedLeaves()) {
    LeafGroup g;
    g.rids.assign(leaf->rids().begin(), leaf->rids().end());
    g.mbr = Mbr::FromView(leaf->mbr());
    if (domain != nullptr) {
      g.region = ClipRegionToDomain(leaf->region(), *domain);
    }
    out.push_back(std::move(g));
  }
  return out;
}

StatusOr<std::vector<LeafGroup>> ExtractLeafGroups(const BufferTree& tree,
                                                   const Domain* domain) {
  std::vector<LeafGroup> out;
  if (tree.size() == 0) return out;  // a lone empty root leaf is no group
  for (const BufferNode* leaf : tree.OrderedLeaves()) {
    LeafGroup g;
    g.mbr = leaf->mbr;
    if (domain != nullptr) {
      g.region = ClipRegionToDomain(leaf->region.view(), *domain);
    }
    g.rids.reserve(leaf->record_count);
    KANON_RETURN_IF_ERROR(tree.ScanLeaf(
        leaf, [&g](uint64_t rid, int32_t, std::span<const double>) {
          g.rids.push_back(rid);
        }));
    out.push_back(std::move(g));
  }
  return out;
}

namespace {

using SharedBlock = BlockRef<const LeafBlock>;

std::span<const RecordId> LeafRids(const LeafGroup& g) { return g.rids; }
std::span<const RecordId> LeafRids(const SharedBlock& b) { return b->rids(); }

size_t LeafDim(const LeafGroup& g) { return g.mbr.dim(); }
size_t LeafDim(const SharedBlock& b) { return b->dim(); }

BoxView LeafMbr(const LeafGroup& g) { return g.mbr.view(); }
BoxView LeafMbr(const SharedBlock& b) { return b->mbr(); }

// A snapshot's blocks sit wherever the writer allocated them, in no
// relation to leaf order, so a scan of a large snapshot would wait on
// memory at every leaf; asking for the leaves a few places ahead overlaps
// those waits. Owned groups are scanned where they were built.
constexpr size_t kPrefetchAhead = 8;
void PrefetchLeaf(const LeafGroup&) {}
void PrefetchLeaf(const SharedBlock& b) { b->Prefetch(); }

// The LS1-LS4 scan over owned groups or shared blocks, parameterized over
// what a partition keeps of its leaves' records (`add_records`: every rid,
// or just a count), so each output shape comes from this one grouping
// rule. A partition's box is the union of its leaves' MBRs.
template <typename Part, typename Leaf, typename AddRecords>
std::vector<Part> LeafScanImpl(std::span<const Leaf> leaves, size_t k1,
                               AddRecords add_records) {
  std::vector<Part> out;
  const size_t dim = leaves.empty() ? 0 : LeafDim(leaves.front());
  Part current;
  current.box = Mbr(dim);
  size_t remaining = 0;
  for (const Leaf& e : leaves) remaining += LeafRids(e).size();

  for (size_t i = 0; i < leaves.size(); ++i) {
    if (i + kPrefetchAhead < leaves.size()) {
      PrefetchLeaf(leaves[i + kPrefetchAhead]);
    }
    const Leaf& e = leaves[i];
    const std::span<const RecordId> rids = LeafRids(e);
    add_records(&current, rids);
    current.box.ExpandToInclude(LeafMbr(e));
    remaining -= rids.size();
    // LS4: if the leftovers cannot form a full group, absorb them here
    // rather than emitting an undersized final partition.
    if (current.size() >= k1 && remaining >= k1) {
      out.push_back(std::move(current));
      current = Part();
      current.box = Mbr(dim);
    }
  }
  if (current.size() != 0) out.push_back(std::move(current));
  return out;
}

void AddRids(Partition* part, std::span<const RecordId> rids) {
  part->rids.insert(part->rids.end(), rids.begin(), rids.end());
}

void AddCount(PartitionBox* part, std::span<const RecordId> rids) {
  part->records += rids.size();
}

}  // namespace

PartitionSet LeafScan(std::span<const LeafGroup> leaves, size_t k1) {
  return {LeafScanImpl<Partition>(leaves, k1, AddRids)};
}

PartitionSet LeafScan(std::span<const SharedBlock> leaves, size_t k1) {
  return {LeafScanImpl<Partition>(leaves, k1, AddRids)};
}

std::vector<PartitionBox> LeafScanBoxes(std::span<const SharedBlock> leaves,
                                        size_t k1) {
  return LeafScanImpl<PartitionBox>(leaves, k1, AddCount);
}

PartitionSet LeafScanWithConstraint(std::span<const LeafGroup> leaves,
                                    const Dataset& dataset,
                                    const PartitionConstraint& constraint) {
  PartitionSet out;
  const size_t dim = dataset.dim();
  const size_t num_leaves = leaves.size();

  // Constraints are monotone upward, so "the suffix of leaves starting at i
  // forms an admissible group" is monotone in i: one backward sweep finds
  // the last admissible suffix start. A group may be closed after leaf i
  // only if the remainder (suffix i+1) is still admissible — the constraint
  // analogue of step LS4, which folds the tail into the final group.
  std::vector<char> suffix_admissible(num_leaves + 1, 0);
  {
    std::vector<int32_t> codes;
    for (size_t i = num_leaves; i-- > 0;) {
      for (RecordId r : leaves[i].rids) {
        codes.push_back(dataset.sensitive(r));
      }
      suffix_admissible[i] =
          suffix_admissible[i + 1] || constraint.AdmissibleCodes(codes)
              ? 1
              : 0;
      if (suffix_admissible[i] && suffix_admissible[i + 1]) {
        // Once both are known admissible, all earlier suffixes are too.
        for (size_t j = 0; j < i; ++j) suffix_admissible[j] = 1;
        break;
      }
    }
  }

  Partition current;
  current.box = Mbr(dim);
  std::vector<int32_t> codes;
  for (size_t i = 0; i < num_leaves; ++i) {
    const LeafGroup& g = leaves[i];
    current.rids.insert(current.rids.end(), g.rids.begin(), g.rids.end());
    current.box.ExpandToInclude(g.mbr);
    for (RecordId r : g.rids) codes.push_back(dataset.sensitive(r));
    if (!constraint.AdmissibleCodes(codes)) continue;
    if (!suffix_admissible[i + 1]) continue;  // absorb the tail (LS4)
    out.partitions.push_back(std::move(current));
    current = Partition();
    current.box = Mbr(dim);
    codes.clear();
  }
  if (!current.rids.empty()) out.partitions.push_back(std::move(current));
  return out;
}

}  // namespace kanon
