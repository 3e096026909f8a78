#include "service/snapshot.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"

namespace kanon {

PartitionSet Snapshot::Release(size_t k1) const {
  return LeafScan(fragments_, std::max(k1, info_.base_k));
}

std::vector<PartitionBox> Snapshot::ReleaseBoxes(size_t k1) const {
  return LeafScanBoxes(fragments_, std::max(k1, info_.base_k));
}

DpCellCounter::DpCellCounter(const Domain& domain, size_t height) {
  if (height == 0) return;
  grid_.emplace(domain, height);
  cells_.assign(grid_->num_leaves(), 0);
}

void DpCellCounter::Recount(const RPlusTree& tree) {
  if (!grid_) return;
  std::fill(cells_.begin(), cells_.end(), 0);
  tree.ForEachLeaf([this](const Node* leaf) {
    AccumulateCells(*grid_, leaf->points().data(), leaf->leaf_size(), &cells_);
  });
}

DpCells DpCellCounter::Copy() const {
  if (!grid_) return nullptr;
  return std::make_shared<const std::vector<uint64_t>>(cells_);
}

std::shared_ptr<const Snapshot> BuildSnapshot(const RPlusTree& tree,
                                              const Domain& domain,
                                              size_t base_k,
                                              const DpCellCounter& dp,
                                              uint64_t epoch) {
  KANON_CHECK(tree.size() >= base_k);
  Timer timer;
  SnapshotInfo info;
  std::vector<LeafFragment> fragments;
  tree.ForEachLeaf([&](const Node* leaf) {
    const LeafBlock* block = leaf->block.get();
    ++(block->frozen() ? info.blocks_shared : info.blocks_cloned);
    block->Freeze();
    fragments.push_back(leaf->block);
  });
  DpCells dp_cells = dp.Copy();
  info.epoch = epoch;
  info.records = tree.size();
  info.base_k = base_k;
  info.build_ms = timer.ElapsedMillis();
  info.created = std::chrono::steady_clock::now();
  return std::make_shared<const Snapshot>(std::move(fragments), domain, info,
                                          std::move(dp_cells), dp.height());
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
