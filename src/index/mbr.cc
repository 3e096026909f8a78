#include "index/mbr.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace kanon {

Mbr Mbr::FromPoint(std::span<const double> point) {
  Mbr m(point.size());
  m.ExpandToInclude(point);
  return m;
}

Mbr Mbr::FromBounds(std::vector<double> lo, std::vector<double> hi) {
  KANON_CHECK(lo.size() == hi.size());
  for (size_t i = 0; i < lo.size(); ++i) KANON_CHECK(lo[i] <= hi[i]);
  Mbr m;
  m.lo_ = std::move(lo);
  m.hi_ = std::move(hi);
  return m;
}

void Mbr::ExpandToInclude(std::span<const double> point) {
  KANON_DCHECK(point.size() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], point[i]);
    hi_[i] = std::max(hi_[i], point[i]);
  }
}

Mbr Mbr::FromView(BoxView box) {
  Mbr m;
  m.lo_.assign(box.lo.begin(), box.lo.end());
  m.hi_.assign(box.hi.begin(), box.hi.end());
  return m;
}

void Mbr::ExpandToInclude(BoxView other) {
  if (other.empty()) return;
  KANON_DCHECK(other.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], other.lo[i]);
    hi_[i] = std::max(hi_[i], other.hi[i]);
  }
}

double Mbr::Volume() const {
  if (empty()) return 0.0;
  double v = 1.0;
  for (size_t i = 0; i < dim(); ++i) v *= Extent(i);
  return v;
}

bool Mbr::ContainsPoint(std::span<const double> point) const {
  return view().ContainsClosed(point);
}

bool Mbr::ContainsBox(const Mbr& other) const {
  if (empty() || other.empty()) return false;
  for (size_t i = 0; i < dim(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool Mbr::Intersects(BoxView other) const {
  if (empty() || other.empty()) return false;
  KANON_DCHECK(other.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (other.hi[i] < lo_[i] || other.lo[i] > hi_[i]) return false;
  }
  return true;
}

double Mbr::IntersectionFraction(const Mbr& other) const {
  if (!Intersects(other)) return 0.0;
  double frac = 1.0;
  for (size_t i = 0; i < dim(); ++i) {
    const double extent = Extent(i);
    if (extent <= 0.0) continue;  // flat dimension: slice fully counted
    const double overlap =
        std::min(hi_[i], other.hi_[i]) - std::max(lo_[i], other.lo_[i]);
    frac *= std::clamp(overlap / extent, 0.0, 1.0);
  }
  return frac;
}

Mbr Mbr::Union(const Mbr& a, const Mbr& b) {
  if (a.empty()) return b;
  Mbr out = a;
  out.ExpandToInclude(b);
  return out;
}

std::string Mbr::ToString() const {
  std::ostringstream os;
  if (empty()) return "[empty]";
  for (size_t i = 0; i < dim(); ++i) {
    os << "[" << lo_[i] << ", " << hi_[i] << "]";
    if (i + 1 < dim()) os << "x";
  }
  return os.str();
}

Region Region::Whole(size_t dim) {
  Region r;
  r.lo.assign(dim, -std::numeric_limits<double>::infinity());
  r.hi.assign(dim, std::numeric_limits<double>::infinity());
  return r;
}

Region Region::FromView(BoxView box) {
  return {{box.lo.begin(), box.lo.end()}, {box.hi.begin(), box.hi.end()}};
}

bool Region::ContainsPoint(std::span<const double> point) const {
  return view().ContainsHalfOpen(point);
}

bool BoxView::ContainsHalfOpen(std::span<const double> point) const {
  KANON_DCHECK(point.size() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (point[i] < lo[i] || point[i] >= hi[i]) return false;
  }
  return true;
}

bool BoxView::ContainsClosed(std::span<const double> point) const {
  if (empty()) return false;
  KANON_DCHECK(point.size() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (point[i] < lo[i] || point[i] > hi[i]) return false;
  }
  return true;
}

std::pair<Region, Region> Region::Cut(size_t axis, double value) const {
  KANON_DCHECK(axis < dim());
  KANON_DCHECK(value > lo[axis] && value < hi[axis]);
  Region left = *this;
  Region right = *this;
  left.hi[axis] = value;
  right.lo[axis] = value;
  return {std::move(left), std::move(right)};
}

std::string Region::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < dim(); ++i) {
    os << "[" << lo[i] << ", " << hi[i] << ")";
    if (i + 1 < dim()) os << "x";
  }
  return os.str();
}

}  // namespace kanon
