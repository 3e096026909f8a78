#include "shard/stitched_snapshot.h"

namespace kanon {

StitchedSnapshot::StitchedSnapshot(
    std::vector<std::shared_ptr<const Snapshot>> parts, Domain domain)
    : parts_(std::move(parts)), domain_(std::move(domain)) {
  info_.num_shards = parts_.size();
  info_.shard_epochs.resize(parts_.size(), 0);
  info_.shard_records.resize(parts_.size(), 0);
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i] == nullptr) continue;
    const SnapshotInfo& si = parts_[i]->info();
    info_.base_k = si.base_k;
    info_.shard_epochs[i] = si.epoch;
    info_.shard_records[i] = si.records;
    info_.records += si.records;
    info_.epoch += si.epoch;
  }
}

StatusOr<DpCells> StitchedSnapshot::SummedDpCells(size_t* height) const {
  auto sum = std::make_shared<std::vector<uint64_t>>();
  size_t h = 0;
  bool any = false;
  for (const std::shared_ptr<const Snapshot>& part : parts_) {
    if (part == nullptr) continue;
    if (part->dp_cells() == nullptr) {
      return Status::FailedPrecondition(
          "snapshot carries no dp cell counts (service runs with "
          "dp_height 0)");
    }
    const std::vector<uint64_t>& cells = *part->dp_cells();
    if (!any) {
      h = part->dp_height();
      sum->assign(cells.size(), 0);
      any = true;
    } else if (part->dp_height() != h || cells.size() != sum->size()) {
      return Status::Internal(
          "dp grid height differs between shards; cell vectors cannot be "
          "summed");
    }
    for (size_t i = 0; i < cells.size(); ++i) (*sum)[i] += cells[i];
  }
  if (!any) {
    return Status::FailedPrecondition(
        "no covered shard carries dp cell counts");
  }
  *height = h;
  return DpCells(std::move(sum));
}

PartitionSet StitchedSnapshot::Release(size_t k1) const {
  PartitionSet out;
  for (const std::shared_ptr<const Snapshot>& part : parts_) {
    if (part == nullptr) continue;
    PartitionSet ps = part->Release(k1);
    out.partitions.insert(out.partitions.end(),
                          std::make_move_iterator(ps.partitions.begin()),
                          std::make_move_iterator(ps.partitions.end()));
  }
  return out;
}

}  // namespace kanon
