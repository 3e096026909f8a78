#include "index/node.h"

#include "common/check.h"

namespace kanon {

void Node::RemoveRecordAt(size_t i) {
  KANON_DCHECK(is_leaf && i < rids.size());
  const size_t last = rids.size() - 1;
  if (i != last) {
    rids[i] = rids[last];
    sensitive[i] = sensitive[last];
    for (size_t d = 0; d < dim_; ++d) {
      points[i * dim_ + d] = points[last * dim_ + d];
    }
  }
  rids.pop_back();
  sensitive.pop_back();
  points.resize(points.size() - dim_);
  --record_count;
}

void Node::RecomputeLeafMbr() {
  KANON_DCHECK(is_leaf);
  mbr = Mbr(dim_);
  for (size_t i = 0; i < rids.size(); ++i) {
    mbr.ExpandToInclude(point(i));
  }
}

}  // namespace kanon
