#include "shard/stitched_snapshot.h"

#include <algorithm>

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

std::vector<PartitionBox> StitchedSnapshot::ReleaseBoxes(size_t k1) const {
  std::vector<PartitionBox> out;
  for (const std::shared_ptr<const Snapshot>& part : parts_) {
    if (part == nullptr) continue;
    std::vector<PartitionBox> boxes = part->ReleaseBoxes(k1);
    out.insert(out.end(), std::make_move_iterator(boxes.begin()),
               std::make_move_iterator(boxes.end()));
  }
  return out;
}

std::string StitchedSnapshot::RenderOnce(
    size_t k1, bool summary, const std::function<std::string()>& render) const {
  const RenderKey key(k1, summary);
  const auto find = [&]() -> std::shared_ptr<const std::string> {
    const auto it = std::find_if(rendered_.begin(), rendered_.end(),
                                 [&](const auto& e) { return e.first == key; });
    return it == rendered_.end() ? nullptr : it->second;
  };
  std::shared_ptr<const std::string> body;
  {
    std::lock_guard<std::mutex> lock(rendered_mu_);
    body = find();
  }
  if (body == nullptr) {
    // A kept body lives as long as the snapshot: drop the render's spare
    // capacity.
    std::string text = render();
    text.shrink_to_fit();
    auto fresh = std::make_shared<const std::string>(std::move(text));
    std::lock_guard<std::mutex> lock(rendered_mu_);
    body = find();
    if (body == nullptr) {
      body = std::move(fresh);
      if (rendered_.size() < kMaxRenderedBodies) {
        rendered_.emplace_back(key, body);
      }
    }
  }
  return *body;  // the copy runs outside the lock
}

size_t StitchedSnapshot::rendered_bodies() const {
  std::lock_guard<std::mutex> lock(rendered_mu_);
  return rendered_.size();
}

}  // namespace kanon
