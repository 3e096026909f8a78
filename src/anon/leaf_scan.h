#ifndef KANON_ANON_LEAF_SCAN_H_
#define KANON_ANON_LEAF_SCAN_H_

#include <memory>
#include <span>

#include "anon/constraints.h"
#include "anon/partition.h"
#include "index/bulk_load.h"
#include "index/buffer_tree.h"
#include "index/rplus_tree.h"

namespace kanon {

/// Extracts the ordered leaves of an index as (rids, MBR) groups — the
/// common currency the anonymization layer operates on. When `domain` is
/// provided, each group's `region` is filled with the leaf's index region
/// clipped to the domain (the uncompacted generalized value).
std::vector<LeafGroup> ExtractLeafGroups(const RPlusTree& tree,
                                         const Domain* domain = nullptr);
StatusOr<std::vector<LeafGroup>> ExtractLeafGroups(
    const BufferTree& tree, const Domain* domain = nullptr);

/// Intersects a half-open index region with the closed domain box.
Mbr ClipRegionToDomain(BoxView region, const Domain& domain);

/// Algorithm LeafScan (paper Fig 5): scans whole leaves in tree order,
/// accumulating them into partitions until each partition holds at least
/// `k1` records; the final fragment (fewer than k1 records left) merges into
/// the last partition (step LS4). Because partitions are unions of whole
/// leaves, every record stays k-bound to its leaf and Lemma 1 guarantees
/// k-anonymity across any set of granularities released this way.
///
/// Partition boxes are the union of member-leaf MBRs, which equals the MBR
/// of the member records (leaf MBRs are tight) — i.e. output is compacted.
PartitionSet LeafScan(std::span<const LeafGroup> leaves, size_t k1);

/// The same scan over shared leaf blocks, the form in which a service
/// snapshot holds the tree's leaves. Each leaf contributes its MBR: the
/// partitions LeafScan(ExtractLeafGroups(tree), k1) gives for the same
/// tree.
PartitionSet LeafScan(std::span<const BlockRef<const LeafBlock>> leaves,
                      size_t k1);

/// LeafScan over blocks keeping only each partition's record count and
/// box: the same partitions in the same order, without copying a single
/// record id. A release rendered without rids needs nothing more.
std::vector<PartitionBox> LeafScanBoxes(
    std::span<const BlockRef<const LeafBlock>> leaves, size_t k1);

/// Generalized leaf scan: accumulate leaves until `constraint` admits the
/// group (monotone constraints only). Needs the dataset to read sensitive
/// codes. With KAnonymity(k1) this reduces to LeafScan(leaves, k1).
PartitionSet LeafScanWithConstraint(std::span<const LeafGroup> leaves,
                                    const Dataset& dataset,
                                    const PartitionConstraint& constraint);

}  // namespace kanon

#endif  // KANON_ANON_LEAF_SCAN_H_
