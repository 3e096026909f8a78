#include "index/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <utility>

#include "common/check.h"
#include "index/hilbert.h"
#include "index/node.h"

namespace kanon {

namespace {

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

/// One contiguous range of the records with its region of space. `open`
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
bool TryCutPiece(RecordBatch* records, const RTreeConfig& config,
                 Piece* piece, Piece* right_out) {
  const size_t dim = records->dim;
  const auto split = ChooseLeafSplit(
      records->values.data() + piece->begin * dim,
      records->sensitive.data() + piece->begin, piece->size(), dim,
      config.min_leaf, config.split, &piece->region, config.leaf_admissible);
  if (!split.has_value()) return false;

  RecordBatch left(dim), right(dim);
  for (size_t i = piece->begin; i < piece->end; ++i) {
    RecordBatch& side =
        records->values[i * dim + split->axis] < split->value ? left : right;
    side.Append(records->rids[i], records->sensitive[i], records->row(i));
  }
  KANON_CHECK(left.size() == split->left_count);

  // Commit: left half then right half back into the range.
  const auto commit = [records, dim](const RecordBatch& side, size_t at) {
    std::copy(side.rids.begin(), side.rids.end(), records->rids.begin() + at);
    std::copy(side.sensitive.begin(), side.sensitive.end(),
              records->sensitive.begin() + at);
    std::copy(side.values.begin(), side.values.end(),
              records->values.begin() + at * dim);
  };
  commit(left, piece->begin);
  commit(right, piece->begin + left.size());

  auto halves = piece->region.Cut(split->axis, split->value);
  right_out->region = std::move(halves.second);
  right_out->begin = piece->begin + left.size();
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
std::vector<Piece> CutIntoFanout(RecordBatch* records,
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
    if (!TryCutPiece(records, config, &pieces[best], &right)) {
      pieces[best].open = false;
      continue;
    }
    pieces.insert(pieces.begin() + best + 1, std::move(right));
  }
  return pieces;
}

/// A leaf over rows [begin, end), in an exact-fit block: a bulk-loaded
/// leaf grows only if later inserts reach it.
std::unique_ptr<Node> MakeLeaf(const RecordBatch& records,
                               const Region& region, size_t begin,
                               size_t end) {
  auto block = LeafBlock::Make(region.view(), end - begin);
  for (size_t i = begin; i < end; ++i) {
    block->Append(records.row(i), records.rids[i], records.sensitive[i]);
  }
  return Node::Leaf(std::move(block));
}

/// Builds the region-disciplined subtree over rows [begin, end) of
/// `records` constrained to `region`: a single (possibly overfull) leaf
/// when the range fits or refuses every admissible cut, otherwise an
/// internal node over recursively carved children. The leaves are a pure
/// function of the record multiset of the range and the region.
std::unique_ptr<Node> BuildSubtree(RecordBatch* records,
                                   const RTreeConfig& config,
                                   const Region& region, size_t begin,
                                   size_t end) {
  if (end - begin <= config.max_leaf) {
    return MakeLeaf(*records, region, begin, end);
  }
  auto pieces = CutIntoFanout(records, config, region, begin, end);
  if (pieces.size() == 1) return MakeLeaf(*records, region, begin, end);
  auto node = Node::Internal(region);
  for (const Piece& piece : pieces) {
    AdoptChild(node.get(), BuildSubtree(records, config, piece.region,
                                        piece.begin, piece.end));
  }
  return node;
}

}  // namespace

RPlusTree TopDownBulkLoad(RecordBatch records, const RTreeConfig& config) {
  const size_t dim = records.dim;
  if (records.empty()) return RPlusTree(dim, config);
  std::unique_ptr<Node> root =
      BuildSubtree(&records, config, Region::Whole(dim), 0, records.size());
  return RPlusTree::FromRoot(dim, config, std::move(root));
}

}  // namespace kanon
