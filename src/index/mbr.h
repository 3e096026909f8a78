#ifndef KANON_INDEX_MBR_H_
#define KANON_INDEX_MBR_H_

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace kanon {

/// A read-only view of box bounds stored elsewhere: an Mbr, a Region, or
/// the inline bounds of a leaf block (index/leaf_block.h). `lo` and `hi`
/// hold one value per axis and must outlive the view.
struct BoxView {
  std::span<const double> lo;
  std::span<const double> hi;

  size_t dim() const { return lo.size(); }
  /// Inverted bounds: a box no point has been added to yet.
  bool empty() const { return dim() == 0 || lo[0] > hi[0]; }
  /// Half-open membership, the Region rule: lo <= x < hi on every axis.
  bool ContainsHalfOpen(std::span<const double> point) const;
  /// Closed membership, the Mbr rule: lo <= x <= hi on every axis.
  bool ContainsClosed(std::span<const double> point) const;
};

/// An n-dimensional minimum bounding rectangle (closed box). An empty Mbr
/// (no points added yet) has inverted bounds. In the anonymization setting
/// the MBR of a partition *is* the generalized quasi-identifier value — the
/// paper's "compaction" is exactly replacing partition regions by MBRs.
class Mbr {
 public:
  Mbr() = default;

  /// An empty box of dimensionality `dim`.
  explicit Mbr(size_t dim)
      : lo_(dim, std::numeric_limits<double>::infinity()),
        hi_(dim, -std::numeric_limits<double>::infinity()) {}

  /// A degenerate box covering exactly `point`.
  static Mbr FromPoint(std::span<const double> point);

  /// A box with explicit bounds (lo[i] <= hi[i] required per dimension).
  static Mbr FromBounds(std::vector<double> lo, std::vector<double> hi);

  /// A copy of the viewed bounds (empty if the view is).
  static Mbr FromView(BoxView box);

  BoxView view() const { return {lo_, hi_}; }

  /// Sets axis `i` to [lo, hi] (lo <= hi), in place.
  void SetAxis(size_t i, double lo, double hi) {
    KANON_DCHECK(lo <= hi);
    lo_[i] = lo;
    hi_[i] = hi;
  }

  size_t dim() const { return lo_.size(); }
  bool empty() const { return dim() == 0 || lo_[0] > hi_[0]; }

  double lo(size_t i) const { return lo_[i]; }
  double hi(size_t i) const { return hi_[i]; }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

  double Extent(size_t i) const { return empty() ? 0.0 : hi_[i] - lo_[i]; }

  /// Grows the box to cover `point` / `other`.
  void ExpandToInclude(std::span<const double> point);
  void ExpandToInclude(const Mbr& other) { ExpandToInclude(other.view()); }
  void ExpandToInclude(BoxView other);

  /// Product of extents; zero for an empty box or when any side is
  /// degenerate (a flat box has no volume).
  double Volume() const;

  bool ContainsPoint(std::span<const double> point) const;
  bool ContainsBox(const Mbr& other) const;

  /// Closed-box intersection test (shared boundaries count as intersecting,
  /// matching the paper's query-match semantics).
  bool Intersects(const Mbr& other) const { return Intersects(other.view()); }
  bool Intersects(BoxView other) const;

  /// Fraction of this box's volume that lies inside `other`, treating
  /// degenerate extents as matching fully when the slice intersects. Used by
  /// the uniform-assumption query estimator (Section 2.3 of the paper).
  double IntersectionFraction(const Mbr& other) const;

  static Mbr Union(const Mbr& a, const Mbr& b);

  /// "[lo0, hi0]x[lo1, hi1]..." for debugging and table rendering.
  std::string ToString() const;

  bool operator==(const Mbr& other) const = default;

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

/// An axis-aligned *region*: a half-open cell [lo, hi) of the recursive
/// space partition maintained by the R⁺-tree. Regions tile the space, so a
/// point lies in exactly one child region — this is what guarantees the
/// non-overlapping partitions the k-anonymization literature expects.
/// Bounds may be infinite.
struct Region {
  std::vector<double> lo;
  std::vector<double> hi;

  static Region Whole(size_t dim);
  static Region FromView(BoxView box);

  size_t dim() const { return lo.size(); }
  BoxView view() const { return {lo, hi}; }

  /// Half-open membership: lo[i] <= x[i] < hi[i] on every axis.
  bool ContainsPoint(std::span<const double> point) const;

  /// Splits this region by the hyperplane {x[axis] == value}. The left part
  /// keeps [lo, value), the right part gets [value, hi).
  std::pair<Region, Region> Cut(size_t axis, double value) const;

  std::string ToString() const;
};

}  // namespace kanon

#endif  // KANON_INDEX_MBR_H_
