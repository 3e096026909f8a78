#ifndef KANON_ANON_MULTIGRANULAR_H_
#define KANON_ANON_MULTIGRANULAR_H_

#include <span>
#include <vector>

#include "anon/partition.h"
#include "index/rplus_tree.h"

namespace kanon {

/// Multi-granular anonymization (paper Section 3): the data owner releases
/// several anonymizations of the *same* table at different granularities
/// (e.g. 5-anonymous to trusted researchers, 50-anonymous to the Internet).
/// Safety under collusion follows from Lemma 1: if every record is k-bound
/// — always published together with the same >= k companions (its leaf) —
/// then no combination of releases isolates fewer than k candidates.

/// Hierarchical algorithm (Section 3.1): the release at depth d maps every
/// node at that depth to one partition containing all records of its
/// subtree, with the subtree MBR as the generalized value. Depth
/// tree.height()-1 gives the finest (leaf) release; depth 0 is one partition
/// holding everything.
PartitionSet ReleaseAtDepth(const RPlusTree& tree, int depth);

/// All releases, finest (leaves) first.
std::vector<PartitionSet> HierarchicalReleases(const RPlusTree& tree);

/// Verifies the k-bound condition across releases: every partition of every
/// release must be a union of whole base leaves, and every base leaf must
/// hold at least k records. This is the sufficient condition of Lemma 1 —
/// both the hierarchical and the leaf-scan algorithm satisfy it by
/// construction, and this checker is what the property tests assert.
Status VerifyKBound(const PartitionSet& base_leaves,
                    std::span<const PartitionSet> releases, size_t k,
                    size_t num_records);

}  // namespace kanon

#endif  // KANON_ANON_MULTIGRANULAR_H_
