#ifndef KANON_TESTS_INVARIANTS_H_
#define KANON_TESTS_INVARIANTS_H_

// Shared structural checkers for the anonymization invariants the paper's
// correctness argument rests on. Every test that validates a built index —
// unit, property, or differential — goes through these, so the definition
// of "valid" lives in exactly one place:
//
//   1. every leaf holds at least k records (a single root leaf is exempt —
//      there is no smaller tree to hold fewer),
//   2. leaf MBRs are pairwise non-overlapping (the R⁺-tree's disjoint
//      half-open regions make the tight boxes disjoint too),
//   3. every record is covered by exactly one leaf MBR and appears under
//      exactly one rid.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "anon/partition.h"
#include "data/dataset.h"
#include "index/bulk_load.h"
#include "index/rplus_tree.h"

namespace kanon::testutil {

/// Invariants 1-3 over a built R⁺-tree.
inline void ExpectTreeLeafInvariants(const RPlusTree& tree, size_t k) {
  const auto leaves = tree.OrderedLeaves();

  // 1. Occupancy floor.
  if (!tree.root()->is_leaf) {
    for (size_t i = 0; i < leaves.size(); ++i) {
      EXPECT_GE(leaves[i]->leaf_size(), k) << "underfull leaf " << i;
    }
  }

  // 2. Pairwise disjoint leaf MBRs. Regions are half-open and tile space,
  // so the tight closed boxes of their member points cannot even touch:
  // along the cut axis the left side's max coordinate is strictly below
  // the cut and the right side's min is at or above it.
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i + 1; j < leaves.size(); ++j) {
      const Mbr a = Mbr::FromView(leaves[i]->mbr());
      const Mbr b = Mbr::FromView(leaves[j]->mbr());
      EXPECT_FALSE(a.Intersects(b)) << "leaf MBRs overlap: " << i << " "
                                    << a.ToString() << " vs " << j << " "
                                    << b.ToString();
    }
  }

  // 3. Exactly-once coverage: unique rids, and each stored point lies in
  // its own leaf's MBR and (by disjointness) no other.
  std::set<uint64_t> seen;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const Node* leaf = leaves[i];
    for (size_t r = 0; r < leaf->leaf_size(); ++r) {
      EXPECT_TRUE(seen.insert(leaf->rids()[r]).second)
          << "rid " << leaf->rids()[r] << " appears in more than one leaf";
      EXPECT_TRUE(leaf->mbr().ContainsClosed(leaf->point(r)))
          << "record " << leaf->rids()[r] << " outside its leaf MBR";
      size_t covering = 0;
      for (const Node* other : leaves) {
        if (other->mbr().ContainsClosed(leaf->point(r))) ++covering;
      }
      EXPECT_EQ(covering, 1u)
          << "record " << leaf->rids()[r] << " covered by " << covering
          << " leaf MBRs";
    }
  }
  EXPECT_EQ(seen.size(), tree.size());
}

/// Invariants 1 and 3 over extracted leaf groups (the index/anon currency).
/// Sort-based loaders (CurveBulkLoad, STR) chunk a linear order, so their
/// group MBRs may legitimately overlap — pass `expect_disjoint` only for
/// groups extracted from a region-disciplined tree.
inline void ExpectLeafGroupInvariants(const Dataset& data,
                                      const std::vector<LeafGroup>& groups,
                                      size_t min_size,
                                      bool expect_disjoint = false) {
  std::set<RecordId> seen;
  for (size_t i = 0; i < groups.size(); ++i) {
    const LeafGroup& g = groups[i];
    EXPECT_GE(g.rids.size(), min_size) << "undersized group " << i;
    for (RecordId r : g.rids) {
      EXPECT_TRUE(seen.insert(r).second)
          << "rid " << r << " appears in more than one group";
      EXPECT_TRUE(g.mbr.ContainsPoint(data.row(r)))
          << "record " << r << " outside its group MBR";
    }
  }
  EXPECT_EQ(seen.size(), data.num_records());
  if (expect_disjoint) {
    for (size_t i = 0; i < groups.size(); ++i) {
      for (size_t j = i + 1; j < groups.size(); ++j) {
        EXPECT_FALSE(groups[i].mbr.Intersects(groups[j].mbr))
            << "group MBRs overlap: " << i << " vs " << j;
      }
    }
  }
}

/// The published-output analogue: the partition set covers every record
/// and every partition holds at least k of them.
inline void ExpectPartitionInvariants(const Dataset& data,
                                      const PartitionSet& ps, size_t k) {
  const Status covers = ps.CheckCovers(data);
  EXPECT_TRUE(covers.ok()) << covers;
  const Status anonymous = ps.CheckKAnonymous(k);
  EXPECT_TRUE(anonymous.ok()) << anonymous;
}

}  // namespace kanon::testutil

#endif  // KANON_TESTS_INVARIANTS_H_
