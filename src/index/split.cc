#include "index/split.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace kanon {

namespace {

/// Best-balanced admissible cut of sorted axis values: the cut value must be
/// one of the data values, with at least `min_side` strictly-smaller values
/// to its left and at least `min_side` values (>= cut) to its right.
std::optional<std::pair<double, size_t>> BalancedCut(
    std::vector<double>& sorted_values, size_t min_side) {
  const size_t n = sorted_values.size();
  if (n < 2 * min_side) return std::nullopt;
  std::sort(sorted_values.begin(), sorted_values.end());
  // Admissible cut positions are boundaries between distinct values.
  const size_t target = n / 2;
  std::optional<std::pair<double, size_t>> best;  // (value, left_count)
  size_t best_imbalance = n + 1;
  size_t i = min_side;
  // Advance to the first boundary at or after min_side.
  while (i < n && sorted_values[i] == sorted_values[i - 1]) ++i;
  for (; i + min_side <= n; ++i) {
    if (sorted_values[i] == sorted_values[i - 1]) continue;
    const size_t left = i;
    const size_t imbalance =
        left > target ? left - target : target - left;
    if (imbalance < best_imbalance) {
      best_imbalance = imbalance;
      best = {sorted_values[i], left};
    }
  }
  return best;
}

/// Cut nearest `target`, respecting min_side.
std::optional<std::pair<double, size_t>> TargetCut(
    std::vector<double>& sorted_values, size_t min_side, double target) {
  const size_t n = sorted_values.size();
  if (n < 2 * min_side) return std::nullopt;
  std::sort(sorted_values.begin(), sorted_values.end());
  std::optional<std::pair<double, size_t>> best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t i = min_side; i + min_side <= n; ++i) {
    if (sorted_values[i] == sorted_values[i - 1]) continue;
    const double dist = std::abs(sorted_values[i] - target);
    if (dist < best_dist) {
      best_dist = dist;
      best = {sorted_values[i], i};
    }
  }
  return best;
}

/// Cut nearest the spatial midpoint of the axis extent, respecting min_side.
std::optional<std::pair<double, size_t>> MidpointCut(
    std::vector<double>& sorted_values, size_t min_side) {
  if (sorted_values.empty()) return std::nullopt;
  const auto [lo_it, hi_it] =
      std::minmax_element(sorted_values.begin(), sorted_values.end());
  return TargetCut(sorted_values, min_side, 0.5 * (*lo_it + *hi_it));
}

/// Cost of a candidate cut: the sum over both resulting sides of either the
/// normalized MBR volume (the classic minimize-area heuristic; a tiny
/// epsilon keeps flat boxes comparable) or, when weights are set, each
/// side's weighted certainty contribution |side| * sum_d w_d * ext_d/dom_d.
/// Multiplying a volume factor by a constant weight would rescale *every*
/// candidate identically and steer nothing, whereas the additive certainty
/// form makes heavy axes genuinely more attractive to cut (paper
/// Section 2.4). Computed in a single pass over the points.
double SplitCost(const double* points, size_t n, size_t dim, size_t axis,
                 double cut, const SplitConfig& config) {
  Mbr left(dim);
  Mbr right(dim);
  size_t left_count = 0;
  for (size_t r = 0; r < n; ++r) {
    const std::span<const double> row(points + r * dim, dim);
    if (row[axis] < cut) {
      left.ExpandToInclude(row);
      ++left_count;
    } else {
      right.ExpandToInclude(row);
    }
  }
  if (config.weights.empty()) {
    double lv = 1.0, rv = 1.0;
    for (size_t d = 0; d < dim; ++d) {
      lv *= config.NormalizedExtent(d, left.Extent(d)) + 1e-9;
      rv *= config.NormalizedExtent(d, right.Extent(d)) + 1e-9;
    }
    return lv + rv;
  }
  double ln = 0.0, rn = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    ln += config.Weight(d) * config.NormalizedExtent(d, left.Extent(d));
    rn += config.Weight(d) * config.NormalizedExtent(d, right.Extent(d));
  }
  return static_cast<double>(left_count) * ln +
         static_cast<double>(n - left_count) * rn;
}

std::vector<size_t> CandidateAxes(size_t dim, const SplitConfig& config) {
  if (!config.biased_axes.empty()) return config.biased_axes;
  std::vector<size_t> axes(dim);
  for (size_t d = 0; d < dim; ++d) axes[d] = d;
  return axes;
}

}  // namespace

std::optional<PointSplit> ChoosePointSplit(const double* points, size_t n,
                                           size_t dim, size_t min_side,
                                           const SplitConfig& config,
                                           const Region* region) {
  if (n < 2 * min_side || n < 2) return std::nullopt;

  // One stats pass gives every axis's extent; for the extent-driven
  // policies that already decides the ranking, and for kMinArea it lets us
  // evaluate the expensive two-box cost on only the few widest axes (the
  // minimum-area cut virtually always lies on one of them).
  std::vector<double> axis_lo(dim, std::numeric_limits<double>::infinity());
  std::vector<double> axis_hi(dim, -std::numeric_limits<double>::infinity());
  for (size_t r = 0; r < n; ++r) {
    for (size_t d = 0; d < dim; ++d) {
      const double v = points[r * dim + d];
      axis_lo[d] = std::min(axis_lo[d], v);
      axis_hi[d] = std::max(axis_hi[d], v);
    }
  }
  constexpr size_t kMinAreaCandidates = 3;

  auto evaluate_axes = [&](std::span<const size_t> axes)
      -> std::optional<PointSplit> {
    std::vector<size_t> ranked(axes.begin(), axes.end());
    std::erase_if(ranked, [&](size_t a) { return a >= dim; });
    // Ranking extent: the data spread, except for quadtree-style splits
    // where a finite region extent takes precedence (cells halve along
    // their own widest side, independent of where the data sits).
    auto rank_extent = [&](size_t a) {
      if (config.policy == SplitPolicy::kRegionMidpoint &&
          region != nullptr && std::isfinite(region->lo[a]) &&
          std::isfinite(region->hi[a])) {
        return region->hi[a] - region->lo[a];
      }
      return axis_hi[a] - axis_lo[a];
    };
    std::sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
      return config.Weight(a) * config.NormalizedExtent(a, rank_extent(a)) >
             config.Weight(b) * config.NormalizedExtent(b, rank_extent(b));
    });
    if (config.policy == SplitPolicy::kMinArea &&
        ranked.size() > kMinAreaCandidates) {
      // Keep a couple of extras in case the widest axes admit no cut.
      std::span<const size_t> head(ranked.data(), ranked.size());
      std::vector<double> values(n);
      std::optional<PointSplit> best;
      double best_score = std::numeric_limits<double>::infinity();
      size_t evaluated = 0;
      for (size_t axis : head) {
        if (evaluated >= kMinAreaCandidates) break;
        for (size_t r = 0; r < n; ++r) values[r] = points[r * dim + axis];
        auto cut = BalancedCut(values, min_side);
        if (!cut) continue;
        ++evaluated;
        const double score =
            SplitCost(points, n, dim, axis, cut->first, config);
        if (score < best_score) {
          best_score = score;
          best = PointSplit{axis, cut->first, cut->second, n - cut->second};
        }
      }
      return best;
    }
    std::vector<double> values(n);
    std::optional<PointSplit> best;
    double best_score = std::numeric_limits<double>::infinity();
    for (size_t axis : ranked) {
      for (size_t r = 0; r < n; ++r) values[r] = points[r * dim + axis];
      std::optional<std::pair<double, size_t>> cut;
      switch (config.policy) {
        case SplitPolicy::kMidpointWidest:
          cut = MidpointCut(values, min_side);
          break;
        case SplitPolicy::kRegionMidpoint:
          if (region != nullptr && std::isfinite(region->lo[axis]) &&
              std::isfinite(region->hi[axis])) {
            cut = TargetCut(values, min_side,
                            0.5 * (region->lo[axis] + region->hi[axis]));
          } else {
            cut = MidpointCut(values, min_side);
          }
          break;
        default:
          cut = BalancedCut(values, min_side);
          break;
      }
      if (!cut) continue;
      double score = 0.0;
      switch (config.policy) {
        case SplitPolicy::kMinArea:
          score = SplitCost(points, n, dim, axis, cut->first, config);
          break;
        case SplitPolicy::kMedianWidest:
        case SplitPolicy::kMidpointWidest:
        case SplitPolicy::kRegionMidpoint:
          // Axes are ranked widest-first: the first admissible cut wins.
          return PointSplit{axis, cut->first, cut->second, n - cut->second};
      }
      if (score < best_score) {
        best_score = score;
        best = PointSplit{axis, cut->first, cut->second, n - cut->second};
      }
    }
    return best;
  };

  const auto axes = CandidateAxes(dim, config);
  auto best = evaluate_axes(axes);
  if (!best && !config.biased_axes.empty()) {
    // Biased axes inadmissible (e.g., constant values): fall back to all.
    std::vector<size_t> all(dim);
    for (size_t d = 0; d < dim; ++d) all[d] = d;
    best = evaluate_axes(all);
  }
  return best;
}

std::optional<PointSplit> ChooseLeafSplit(const double* points,
                                          const int32_t* sensitive, size_t n,
                                          size_t dim, size_t min_side,
                                          const SplitConfig& config,
                                          const Region* region,
                                          const LeafPredicate& leaf_admissible) {
  auto split = ChoosePointSplit(points, n, dim, min_side, config, region);
  if (!split || !leaf_admissible) return split;
  std::vector<int32_t> left_codes, right_codes;
  left_codes.reserve(split->left_count);
  right_codes.reserve(split->right_count);
  for (size_t i = 0; i < n; ++i) {
    (points[i * dim + split->axis] < split->value ? left_codes : right_codes)
        .push_back(sensitive[i]);
  }
  if (!leaf_admissible(left_codes) || !leaf_admissible(right_codes)) {
    return std::nullopt;
  }
  return split;
}

std::optional<RegionSplit> ChooseRegionSeparator(
    std::span<const BoxView> child_regions, const SplitConfig& config) {
  const size_t m = child_regions.size();
  if (m < 2) return std::nullopt;
  const size_t dim = child_regions[0].dim();
  const size_t target = m / 2;

  std::optional<RegionSplit> best;
  size_t best_imbalance = m + 1;
  for (size_t axis = 0; axis < dim; ++axis) {
    // Candidate planes: every finite child boundary on this axis.
    std::vector<double> candidates;
    candidates.reserve(2 * m);
    for (const BoxView& r : child_regions) {
      if (std::isfinite(r.lo[axis])) candidates.push_back(r.lo[axis]);
      if (std::isfinite(r.hi[axis])) candidates.push_back(r.hi[axis]);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (double v : candidates) {
      size_t left = 0;
      bool valid = true;
      for (const BoxView& r : child_regions) {
        if (r.hi[axis] <= v) {
          ++left;
        } else if (r.lo[axis] >= v) {
          // right side
        } else {
          valid = false;  // plane slices through this child's region
          break;
        }
      }
      if (!valid || left == 0 || left == m) continue;
      const size_t imbalance = left > target ? left - target : target - left;
      // Prefer balance; among equally balanced planes prefer higher-weighted
      // axes (workload bias applies to internal splits as well).
      if (imbalance < best_imbalance ||
          (imbalance == best_imbalance && best &&
           config.Weight(axis) > config.Weight(best->axis))) {
        best_imbalance = imbalance;
        best = RegionSplit{axis, v, left, m - left};
      }
    }
  }
  return best;
}

}  // namespace kanon
