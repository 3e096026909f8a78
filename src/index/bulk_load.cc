#include "index/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <utility>

#include "common/check.h"
#include "index/hilbert.h"
#include "index/node.h"
#include "storage/external_sort.h"

namespace kanon {

namespace {

/// The record arrays being carved into a tree, in (curve key, rid) sorted
/// order. This is the input currency of the region-disciplined top-down
/// build; concurrent subtree builds touch disjoint index ranges, so no
/// synchronization is needed.
struct BuildArrays {
  BuildArrays() = default;
  explicit BuildArrays(size_t d) : dim(d) {}

  size_t dim = 0;
  std::vector<double> points;  // row-major, rids.size() * dim
  std::vector<uint64_t> rids;
  std::vector<int32_t> sensitive;

  std::span<const double> row(size_t i) const {
    return {points.data() + i * dim, dim};
  }
};

/// Chunks an ordered rid list into groups of target_size, folding a
/// too-small tail into the previous group, and computes group MBRs.
std::vector<LeafGroup> ChunkOrdered(const Dataset& dataset,
                                    const std::vector<RecordId>& ordered,
                                    const SortLoadConfig& config) {
  KANON_CHECK(config.target_size >= config.min_size);
  std::vector<LeafGroup> groups;
  const size_t n = ordered.size();
  size_t begin = 0;
  while (begin < n) {
    size_t end = std::min(begin + config.target_size, n);
    // If the remainder after this group would be a too-small fragment, take
    // it now.
    if (n - end > 0 && n - end < config.min_size) end = n;
    LeafGroup g;
    g.mbr = Mbr(dataset.dim());
    for (size_t i = begin; i < end; ++i) {
      g.rids.push_back(ordered[i]);
      g.mbr.ExpandToInclude(dataset.row(ordered[i]));
    }
    groups.push_back(std::move(g));
    begin = end;
  }
  // A single undersized group can only happen when the dataset itself has
  // fewer than min_size records; nothing more can be done in that case.
  return groups;
}

}  // namespace

std::vector<LeafGroup> CurveBulkLoad(const Dataset& dataset, CurveOrder order,
                                     const SortLoadConfig& config) {
  if (dataset.empty()) return {};
  const Domain domain = dataset.ComputeDomain();
  const GridQuantizer quantizer(domain, config.grid_bits);
  const size_t n = dataset.num_records();
  std::vector<std::pair<CurveKey, RecordId>> keyed(n);
  std::vector<uint32_t> grid(dataset.dim());
  for (RecordId r = 0; r < n; ++r) {
    quantizer.Quantize(dataset.row(r), grid.data());
    const std::span<const uint32_t> g(grid.data(), grid.size());
    keyed[r] = {order == CurveOrder::kHilbert
                    ? HilbertKey(g, config.grid_bits)
                    : ZOrderKey(g, config.grid_bits),
                r};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<RecordId> ordered(n);
  for (size_t i = 0; i < n; ++i) ordered[i] = keyed[i].second;
  return ChunkOrdered(dataset, ordered, config);
}

StatusOr<std::vector<LeafGroup>> CurveBulkLoadExternal(
    const Dataset& dataset, CurveOrder order, const SortLoadConfig& config,
    BufferPool* pool, size_t run_records, ThreadPool* workers) {
  if (dataset.empty()) return std::vector<LeafGroup>{};
  const Domain domain = dataset.ComputeDomain();
  const GridQuantizer quantizer(domain, config.grid_bits);
  const int shift = std::max(
      0, config.grid_bits * static_cast<int>(dataset.dim()) - 64);

  ExternalSorter sorter(dataset.dim(), run_records, pool, workers);
  std::vector<uint32_t> grid(dataset.dim());
  for (RecordId r = 0; r < dataset.num_records(); ++r) {
    quantizer.Quantize(dataset.row(r), grid.data());
    const std::span<const uint32_t> g(grid.data(), grid.size());
    const CurveKey key = order == CurveOrder::kHilbert
                             ? HilbertKey(g, config.grid_bits)
                             : ZOrderKey(g, config.grid_bits);
    KANON_RETURN_IF_ERROR(sorter.Add(static_cast<uint64_t>(key >> shift), r,
                                     dataset.sensitive(r), dataset.row(r)));
  }
  std::vector<RecordId> ordered;
  ordered.reserve(dataset.num_records());
  KANON_RETURN_IF_ERROR(sorter.Finish(
      [&ordered](uint64_t, uint64_t rid, int32_t, std::span<const double>) {
        ordered.push_back(rid);
      }));
  return ChunkOrdered(dataset, ordered, config);
}

namespace {

void StrRecurse(const Dataset& dataset, std::vector<RecordId>& rids,
                size_t attr, const SortLoadConfig& config,
                std::vector<LeafGroup>* out) {
  const size_t dim = dataset.dim();
  std::sort(rids.begin(), rids.end(), [&](RecordId a, RecordId b) {
    return dataset.value(a, attr) < dataset.value(b, attr);
  });
  if (attr + 1 == dim) {
    auto groups = ChunkOrdered(dataset, rids, config);
    out->insert(out->end(), std::make_move_iterator(groups.begin()),
                std::make_move_iterator(groups.end()));
    return;
  }
  // Number of leaves this set will produce, sliced into ~P^((d-a-1)/(d-a))
  // slabs along the current attribute per the STR recipe.
  const double leaves = std::max(
      1.0, static_cast<double>(rids.size()) / config.target_size);
  const double remaining_dims = static_cast<double>(dim - attr);
  const auto slabs = static_cast<size_t>(std::ceil(
      std::pow(leaves, 1.0 / remaining_dims)));
  const size_t slab_size =
      (rids.size() + slabs - 1) / std::max<size_t>(1, slabs);
  size_t begin = 0;
  while (begin < rids.size()) {
    size_t end = std::min(begin + slab_size, rids.size());
    if (rids.size() - end > 0 && rids.size() - end < config.min_size) {
      end = rids.size();
    }
    std::vector<RecordId> slab(rids.begin() + begin, rids.begin() + end);
    StrRecurse(dataset, slab, attr + 1, config, out);
    begin = end;
  }
}

}  // namespace

std::vector<LeafGroup> StrBulkLoad(const Dataset& dataset,
                                   const SortLoadConfig& config) {
  if (dataset.empty()) return {};
  std::vector<RecordId> rids(dataset.num_records());
  for (RecordId r = 0; r < rids.size(); ++r) rids[r] = r;
  std::vector<LeafGroup> out;
  StrRecurse(dataset, rids, 0, config, &out);
  return out;
}

namespace {

/// One contiguous range of the arrays with its region of space. `open`
/// means a further cut may still be attempted.
struct Piece {
  Region region;
  size_t begin = 0;
  size_t end = 0;
  bool open = true;

  size_t size() const { return end - begin; }
};

/// Tries to cut `piece` with the tree's split policy, through the same
/// admissibility gate as every leaf split (ChooseLeafSplit): a piece
/// whose cut would fail leaf_admissible stays whole. On success the
/// range is stably partitioned in place (left records keep their order,
/// then right records keep theirs — determinism of the serialized leaf
/// order depends on this), `piece` shrinks to the left half and
/// `*right_out` receives the right half.
bool TryCutPiece(BuildArrays* arrays, const RTreeConfig& config, Piece* piece,
                 Piece* right_out) {
  const size_t dim = arrays->dim;
  const auto split = ChooseLeafSplit(
      arrays->points.data() + piece->begin * dim,
      arrays->sensitive.data() + piece->begin, piece->size(), dim,
      config.min_leaf, config.split, &piece->region, config.leaf_admissible);
  if (!split.has_value()) return false;

  BuildArrays left(dim), right(dim);
  for (size_t i = piece->begin; i < piece->end; ++i) {
    BuildArrays& side =
        arrays->points[i * dim + split->axis] < split->value ? left : right;
    side.rids.push_back(arrays->rids[i]);
    side.sensitive.push_back(arrays->sensitive[i]);
    const auto p = arrays->row(i);
    side.points.insert(side.points.end(), p.begin(), p.end());
  }
  KANON_CHECK(left.rids.size() == split->left_count);

  // Commit: left half then right half back into the range.
  std::copy(left.rids.begin(), left.rids.end(),
            arrays->rids.begin() + piece->begin);
  std::copy(right.rids.begin(), right.rids.end(),
            arrays->rids.begin() + piece->begin + left.rids.size());
  std::copy(left.sensitive.begin(), left.sensitive.end(),
            arrays->sensitive.begin() + piece->begin);
  std::copy(right.sensitive.begin(), right.sensitive.end(),
            arrays->sensitive.begin() + piece->begin + left.rids.size());
  std::copy(left.points.begin(), left.points.end(),
            arrays->points.begin() + piece->begin * dim);
  std::copy(right.points.begin(), right.points.end(),
            arrays->points.begin() + (piece->begin + left.rids.size()) * dim);

  auto halves = piece->region.Cut(split->axis, split->value);
  right_out->region = std::move(halves.second);
  right_out->begin = piece->begin + left.rids.size();
  right_out->end = piece->end;
  right_out->open = true;
  piece->region = std::move(halves.first);
  piece->end = right_out->begin;
  return true;
}

/// Carves [begin, end) into at most max_fanout region-disjoint pieces by
/// repeatedly cutting the largest still-overfull piece (ties break on the
/// lowest piece index — a deterministic rule). Pieces stay in range
/// order, so sibling order in the built tree is deterministic too.
std::vector<Piece> CutIntoFanout(BuildArrays* arrays,
                                 const RTreeConfig& config,
                                 const Region& region, size_t begin,
                                 size_t end) {
  std::vector<Piece> pieces;
  pieces.push_back({region, begin, end, true});
  while (pieces.size() < config.max_fanout) {
    size_t best = pieces.size();
    size_t best_size = config.max_leaf;  // only pieces beyond a leaf's reach
    for (size_t i = 0; i < pieces.size(); ++i) {
      if (pieces[i].open && pieces[i].size() > best_size) {
        best = i;
        best_size = pieces[i].size();
      }
    }
    if (best == pieces.size()) break;
    Piece right;
    if (!TryCutPiece(arrays, config, &pieces[best], &right)) {
      pieces[best].open = false;
      continue;
    }
    pieces.insert(pieces.begin() + best + 1, std::move(right));
  }
  return pieces;
}

std::unique_ptr<Node> MakeLeaf(const BuildArrays& arrays,
                               const Region& region, size_t begin,
                               size_t end) {
  auto leaf = std::make_unique<Node>(arrays.dim, /*leaf=*/true);
  leaf->region = region;
  for (size_t i = begin; i < end; ++i) {
    leaf->AppendRecord(arrays.row(i), arrays.rids[i], arrays.sensitive[i]);
  }
  return leaf;
}

/// Builds the region-disciplined subtree over rows [begin, end) of
/// `arrays` constrained to `region`: a single (possibly overfull) leaf
/// when the range fits or refuses every admissible cut, otherwise an
/// internal node over recursively carved children. With `workers`, the
/// children build concurrently (they touch disjoint row ranges). The
/// result is a pure function of the sorted record range and the region.
std::unique_ptr<Node> BuildSubtree(BuildArrays* arrays,
                                   const RTreeConfig& config,
                                   const Region& region, size_t begin,
                                   size_t end, ThreadPool* workers = nullptr) {
  if (end - begin <= config.max_leaf) {
    return MakeLeaf(*arrays, region, begin, end);
  }
  auto pieces = CutIntoFanout(arrays, config, region, begin, end);
  if (pieces.size() == 1) return MakeLeaf(*arrays, region, begin, end);
  std::vector<std::unique_ptr<Node>> children(pieces.size());
  const auto build = [&](size_t i) {
    children[i] = BuildSubtree(arrays, config, pieces[i].region,
                               pieces[i].begin, pieces[i].end);
  };
  if (workers != nullptr) {
    workers->ParallelFor(children.size(), build);
  } else {
    for (size_t i = 0; i < children.size(); ++i) build(i);
  }
  auto node = std::make_unique<Node>(arrays->dim, /*leaf=*/false);
  node->region = region;
  for (auto& child : children) AdoptChild(node.get(), std::move(child));
  return node;
}

}  // namespace

StatusOr<RPlusTree> SortedBulkLoadTree(const Dataset& dataset,
                                       const RTreeConfig& config,
                                       CurveOrder order, int grid_bits,
                                       BufferPool* pool, size_t run_records,
                                       ThreadPool* workers) {
  const size_t dim = dataset.dim();
  const size_t n = dataset.num_records();
  if (n == 0) return RPlusTree(dim, config);
  if (workers != nullptr && workers->capacity() == 0) workers = nullptr;

  // 1. Curve keys, computed in record-index chunks across the workers
  // (each chunk writes a disjoint slice of `keys`).
  const Domain domain = dataset.ComputeDomain();
  const GridQuantizer quantizer(domain, grid_bits);
  const int shift = std::max(0, grid_bits * static_cast<int>(dim) - 64);
  std::vector<uint64_t> keys(n);
  const auto compute_keys = [&](size_t begin, size_t end) {
    std::vector<uint32_t> grid(dim);
    for (size_t r = begin; r < end; ++r) {
      quantizer.Quantize(dataset.row(r), grid.data());
      const std::span<const uint32_t> g(grid.data(), grid.size());
      const CurveKey key = order == CurveOrder::kHilbert
                               ? HilbertKey(g, grid_bits)
                               : ZOrderKey(g, grid_bits);
      keys[r] = static_cast<uint64_t>(key >> shift);
    }
  };
  if (workers != nullptr) {
    const size_t chunk =
        std::max<size_t>(1024, n / ((workers->capacity() + 1) * 8));
    const size_t num_chunks = (n + chunk - 1) / chunk;
    workers->ParallelFor(num_chunks, [&](size_t c) {
      compute_keys(c * chunk, std::min(n, (c + 1) * chunk));
    });
  } else {
    compute_keys(0, n);
  }

  // 2. External sort by (curve key, rid); the sorter parallelizes run
  // generation and merging internally.
  ExternalSorter sorter(dim, run_records, pool, workers);
  for (RecordId r = 0; r < n; ++r) {
    KANON_RETURN_IF_ERROR(
        sorter.Add(keys[r], r, dataset.sensitive(r), dataset.row(r)));
  }
  keys.clear();
  keys.shrink_to_fit();
  BuildArrays arrays(dim);
  arrays.rids.reserve(n);
  arrays.sensitive.reserve(n);
  arrays.points.reserve(n * dim);
  KANON_RETURN_IF_ERROR(sorter.Finish(
      [&arrays](uint64_t, uint64_t rid, int32_t sensitive,
                std::span<const double> values) {
        arrays.rids.push_back(rid);
        arrays.sensitive.push_back(sensitive);
        arrays.points.insert(arrays.points.end(), values.begin(),
                             values.end());
      }));

  // 3. Top-down build; the root's pieces build concurrently.
  std::unique_ptr<Node> root =
      BuildSubtree(&arrays, config, Region::Whole(dim), 0, n, workers);
  return RPlusTree::FromRoot(dim, config, std::move(root));
}

}  // namespace kanon
