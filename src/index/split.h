#ifndef KANON_INDEX_SPLIT_H_
#define KANON_INDEX_SPLIT_H_

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "index/mbr.h"

namespace kanon {

/// How a node chooses the axis and cut value when it splits.
enum class SplitPolicy {
  /// Try every admissible axis at its best-balanced cut; keep the cut whose
  /// two resulting MBRs have the smallest total (weight-normalized) volume.
  /// This is the paper's "the R-tree splits by trying to minimize the area
  /// of the resulting partitions" and is the default.
  kMinArea,
  /// Split the axis with the largest weighted normalized extent at a
  /// balanced cut (the Mondrian-style heuristic, exposed for ablation).
  kMedianWidest,
  /// Same axis choice but cut at the spatial midpoint instead of the median.
  kMidpointWidest,
  /// Quadtree-style, data-independent cuts: split at the midpoint of the
  /// node's *region* (snapped to the nearest admissible data boundary),
  /// falling back to the data midpoint when the region is unbounded. The
  /// paper's conclusion cites the case for quadtrees as multidimensional
  /// indexes; this policy lets that trade-off be measured. Typically used
  /// with min_leaf = 1 plus leaf-scan merging, since regular cells cannot
  /// honor an occupancy floor.
  kRegionMidpoint,
};

/// Shared configuration for split decisions.
struct SplitConfig {
  SplitPolicy policy = SplitPolicy::kMinArea;

  /// Per-axis importance weights (empty = all 1.0). Higher weight makes an
  /// axis more attractive to split — the workload-aware knob from
  /// Section 2.4 of the paper ("assigning higher weights to the more
  /// important quasi-identifier attributes").
  std::vector<double> weights;

  /// If non-empty, splits use only these axes whenever one of them admits a
  /// valid cut (the paper's hard-biased splitting: "selects the Zipcode
  /// attribute as the splitting attribute for every split").
  std::vector<size_t> biased_axes;

  /// Optional per-axis domain extents used to normalize lengths across
  /// attributes with very different scales (empty = no normalization).
  std::vector<double> domain_extent;

  double NormalizedExtent(size_t axis, double extent) const {
    if (axis < domain_extent.size() && domain_extent[axis] > 0.0) {
      return extent / domain_extent[axis];
    }
    return extent;
  }
  double Weight(size_t axis) const {
    return axis < weights.size() ? weights[axis] : 1.0;
  }
};

/// A chosen cut of a point multiset: records with point[axis] < value go
/// left; the rest go right.
struct PointSplit {
  size_t axis = 0;
  double value = 0.0;
  size_t left_count = 0;
  size_t right_count = 0;
};

/// Chooses a cut of `n` points (row-major in `points`) such that both sides
/// receive at least `min_side` records. Returns nullopt when no axis admits
/// such a cut (e.g., too many duplicate quasi-identifier vectors) — callers
/// then leave the node overfull, which never violates k-anonymity.
/// `region` (the node's cell, when available) is consulted only by the
/// kRegionMidpoint policy.
std::optional<PointSplit> ChoosePointSplit(const double* points, size_t n,
                                           size_t dim, size_t min_side,
                                           const SplitConfig& config,
                                           const Region* region = nullptr);

/// Publication predicate over the sensitive codes of a candidate leaf
/// (l-diversity, (α,k), ...; see RTreeConfig::leaf_admissible).
using LeafPredicate = std::function<bool(std::span<const int32_t>)>;

/// ChoosePointSplit over a leaf's records (row-major `points` with their
/// `sensitive` codes), gated on `leaf_admissible`: when it is set, the cut
/// is returned only if the codes on *both* sides satisfy it. nullopt keeps
/// the records in one (possibly overfull) leaf, which never weakens the
/// guarantee. Every leaf split of every tree builder goes through here.
std::optional<PointSplit> ChooseLeafSplit(const double* points,
                                          const int32_t* sensitive, size_t n,
                                          size_t dim, size_t min_side,
                                          const SplitConfig& config,
                                          const Region* region,
                                          const LeafPredicate& leaf_admissible);

/// A separating hyperplane for an internal node's children: children whose
/// region satisfies hi[axis] <= value go left, the rest (lo[axis] >= value)
/// go right.
struct RegionSplit {
  size_t axis = 0;
  double value = 0.0;
  size_t left_count = 0;
  size_t right_count = 0;
};

/// Finds a hyperplane that cleanly separates sibling regions into two
/// non-empty groups, preferring balanced group sizes. Because sibling
/// regions arise from recursive binary cuts, at least one separating plane
/// always exists; nullopt is only possible for degenerate inputs (< 2
/// children).
std::optional<RegionSplit> ChooseRegionSeparator(
    std::span<const BoxView> child_regions, const SplitConfig& config);

}  // namespace kanon

#endif  // KANON_INDEX_SPLIT_H_
