#ifndef KANON_TESTS_DIFFERENTIAL_H_
#define KANON_TESTS_DIFFERENTIAL_H_

// The shared differential-equivalence oracle. The repo's strongest
// correctness arguments are differential: two pipelines that are allowed
// to differ in execution strategy (publication cadence,
// bulk vs record-at-a-time loading) must agree on what they publish. This
// header is the single vocabulary those comparisons are written in, at
// three strictness levels:
//
//   * byte identity       — SnapshotBytes: the serialized tree stream,
//     for pipelines that promise the exact same tree (two top-down
//     bulk loads of the same records).
//   * release identity    — ExpectSameRelease: identical partitions in
//     order (rids and box bounds), for same-tree pipelines compared at
//     the published-output level.
//   * equivalence         — ExpectEquivalentTrees: same record multiset,
//     structural invariants and equal range-query answers, for pipelines
//     that legitimately build different trees over the same records
//     (bulk-loaded vs tuple-loaded trees).
//
// A "shared stream fixtures" section at the bottom holds the
// deterministic record stream the service and bulk-load tests feed the
// oracle with.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "anon/partition.h"
#include "common/random.h"
#include "data/dataset.h"
#include "index/mbr.h"
#include "index/rplus_tree.h"
#include "index/tree_persistence.h"
#include "invariants.h"
#include "service/snapshot.h"
#include "storage/pager.h"

namespace kanon::testutil {

// ---------------------------------------------------------------------------
// Release-level oracles.

/// Exact release identity: the same partitions in the same order, with
/// the same rids and box bounds. The strictest published-output check —
/// only pipelines that promise the identical tree can pass it.
inline void ExpectSameRelease(const PartitionSet& a, const PartitionSet& b) {
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (size_t p = 0; p < a.partitions.size(); ++p) {
    EXPECT_EQ(a.partitions[p].rids, b.partitions[p].rids) << "partition " << p;
    ASSERT_EQ(a.partitions[p].box.dim(), b.partitions[p].box.dim());
    for (size_t d = 0; d < a.partitions[p].box.dim(); ++d) {
      EXPECT_EQ(a.partitions[p].box.lo(d), b.partitions[p].box.lo(d));
      EXPECT_EQ(a.partitions[p].box.hi(d), b.partitions[p].box.hi(d));
    }
  }
}

// ---------------------------------------------------------------------------
// Tree-level oracles.

/// One record as the oracle compares it: (rid, sensitive, coordinates).
using RecordRow = std::tuple<uint64_t, int32_t, std::vector<double>>;

/// The tree's record multiset in canonical (sorted) order — what every
/// loading strategy must preserve exactly, however it arranges the leaves.
inline std::vector<RecordRow> TreeRecordMultiset(const RPlusTree& tree) {
  std::vector<RecordRow> rows;
  rows.reserve(tree.size());
  for (const Node* leaf : tree.OrderedLeaves()) {
    for (size_t r = 0; r < leaf->leaf_size(); ++r) {
      const auto p = leaf->point(r);
      rows.emplace_back(leaf->rids()[r], leaf->sensitive()[r],
                        std::vector<double>(p.begin(), p.end()));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The tree's logical serialized byte stream (page framing stripped): the
/// medium of byte-identity comparisons.
inline std::vector<char> SnapshotBytes(const RPlusTree& tree) {
  MemPager pager;
  auto snapshot = SaveTree(tree, &pager);
  EXPECT_TRUE(snapshot.ok());
  if (!snapshot.ok()) return {};
  std::vector<char> page(pager.page_size());
  std::vector<char> bytes;
  PageId pid = snapshot->first_page;
  while (pid != kInvalidPageId) {
    EXPECT_TRUE(pager.Read(pid, page.data()).ok());
    bytes.insert(bytes.end(), page.begin() + sizeof(PageId), page.end());
    std::memcpy(&pid, page.data(), sizeof(pid));
  }
  bytes.resize(snapshot->byte_size);
  return bytes;
}

/// The differential equivalence oracle: `got` (e.g. a bulk-loaded tree)
/// is a valid anonymization index over exactly the records of `want`
/// (e.g. the tuple-loaded reference), even though the two trees may
/// arrange them differently. Checks, in order:
/// structural invariants on `got` (occupancy floor k, disjoint leaf
/// MBRs, exactly-once coverage), identical record multisets, and equal
/// range-query answers over `num_queries` seeded random boxes in
/// `domain` (rid sets, order-insensitive).
inline void ExpectEquivalentTrees(const RPlusTree& got, const RPlusTree& want,
                                  size_t k, const Domain& domain,
                                  uint64_t seed, size_t num_queries = 48) {
  ASSERT_EQ(got.size(), want.size());
  const Status invariants = got.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
  ExpectTreeLeafInvariants(got, k);
  EXPECT_TRUE(TreeRecordMultiset(got) == TreeRecordMultiset(want))
      << "record multisets differ (" << got.size() << " records)";

  Rng rng(seed);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<double> lo(domain.dim()), hi(domain.dim());
    for (size_t d = 0; d < domain.dim(); ++d) {
      const double a = rng.UniformDouble(domain.lo[d], domain.hi[d]);
      const double b = rng.UniformDouble(domain.lo[d], domain.hi[d]);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const Mbr box = Mbr::FromBounds(std::move(lo), std::move(hi));
    std::vector<uint64_t> from_got, from_want;
    got.SearchRange(box, &from_got);
    want.SearchRange(box, &from_want);
    std::sort(from_got.begin(), from_got.end());
    std::sort(from_want.begin(), from_want.end());
    EXPECT_EQ(from_got, from_want) << "range query " << q << " differs";
  }
}

// ---------------------------------------------------------------------------
// Shared stream fixtures.

inline Domain SquareDomain(double lo, double hi) {
  Domain d;
  d.lo = {lo, lo};
  d.hi = {hi, hi};
  return d;
}

/// The deterministic pseudo-grid stream the service, shard and HTTP tests
/// use. Duplicate-heavy by construction (97·89 distinct points), which
/// exercises key ties and unsplittable groups.
inline std::vector<double> GridPoint(size_t i) {
  return {static_cast<double>(i % 97), static_cast<double>((i * 7) % 89)};
}

inline int32_t GridSensitive(size_t i) { return static_cast<int32_t>(i % 5); }

/// The service's publication of `tree` with the DP cells recounted from
/// its records, as the service holds them after recovery.
inline std::shared_ptr<const Snapshot> PublishTree(const RPlusTree& tree,
                                                   const Domain& domain,
                                                   size_t base_k,
                                                   size_t dp_height,
                                                   uint64_t epoch) {
  DpCellCounter dp(domain, dp_height);
  dp.Recount(tree);
  return BuildSnapshot(tree, domain, base_k, dp, epoch);
}

}  // namespace kanon::testutil

#endif  // KANON_TESTS_DIFFERENTIAL_H_
