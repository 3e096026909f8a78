#include "service/snapshot.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "dp/dp_hierarchy.h"

namespace kanon {

PartitionSet Snapshot::Release(size_t k1) const {
  return LeafScan(fragments_, std::max(k1, info_.base_k));
}

std::vector<PartitionBox> Snapshot::ReleaseBoxes(size_t k1) const {
  return LeafScanBoxes(fragments_, std::max(k1, info_.base_k));
}

std::shared_ptr<const Snapshot> BuildSnapshot(
    const RPlusTree& tree, const Domain& domain,
    const RTreeAnonymizerOptions& anonymizer, size_t dp_height,
    uint64_t epoch) {
  KANON_CHECK(tree.size() >= anonymizer.base_k);
  Timer timer;
  std::vector<LeafFragment> fragments;
  for (const Node* leaf : tree.OrderedLeaves()) {
    auto group = std::make_shared<LeafGroup>();
    group->rids = leaf->rids;
    group->mbr = leaf->mbr;
    group->region = ClipRegionToDomain(leaf->region, domain);
    if (!anonymizer.compact && !group->region.empty()) {
      // Publish index regions instead of tight MBRs (the uncompacted view).
      group->mbr = group->region;
    }
    fragments.push_back(std::move(group));
  }
  SnapshotInfo info;
  info.epoch = epoch;
  info.records = tree.size();
  info.base_k = anonymizer.base_k;
  info.build_ms = timer.ElapsedMillis();
  info.created = std::chrono::steady_clock::now();
  // Exact DP grid cell counts over every record. The accumulation is a
  // pure function of the record multiset, so per-shard vectors sum and a
  // follower replaying the same records reproduces them exactly.
  DpCells dp_cells;
  if (dp_height > 0) {
    const DpGrid grid(domain, dp_height);
    auto cells = std::make_shared<std::vector<uint64_t>>();
    for (const Node* leaf : tree.OrderedLeaves()) {
      AccumulateCells(grid, leaf->points.data(), leaf->leaf_size(),
                      cells.get());
    }
    if (cells->empty()) cells->assign(grid.num_leaves(), 0);
    dp_cells = std::move(cells);
  }
  return std::make_shared<const Snapshot>(std::move(fragments), domain, info,
                                          std::move(dp_cells), dp_height);
}

namespace {

// One NCP formula for both partition shapes (Partition and PartitionBox).
template <typename Part>
double AverageNcp(std::span<const Part> parts, const Domain& domain) {
  size_t records = 0;
  double penalty = 0.0;
  for (const Part& p : parts) {
    double ncp = 0.0;
    for (size_t a = 0; a < domain.dim(); ++a) {
      const double extent = domain.Extent(a);
      if (extent > 0.0) ncp += p.box.Extent(a) / extent;
    }
    penalty += ncp * static_cast<double>(p.size());
    records += p.size();
  }
  if (records == 0 || domain.dim() == 0) return 0.0;
  return penalty / (static_cast<double>(records) *
                    static_cast<double>(domain.dim()));
}

}  // namespace

double AverageBoxNcp(const PartitionSet& ps, const Domain& domain) {
  return AverageNcp<Partition>(ps.partitions, domain);
}

double AverageBoxNcp(std::span<const PartitionBox> parts,
                     const Domain& domain) {
  return AverageNcp(parts, domain);
}

}  // namespace kanon
