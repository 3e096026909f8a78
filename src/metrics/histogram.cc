#include "metrics/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace kanon {

namespace {

Histogram MakeFrame(const Domain& domain, size_t attr, size_t num_bins) {
  Histogram h;
  h.lo = domain.lo[attr];
  h.hi = domain.hi[attr];
  h.mass.assign(std::max<size_t>(1, num_bins), 0.0);
  return h;
}

size_t BinOf(const Histogram& h, double value) {
  if (h.hi <= h.lo) return 0;
  const double frac = (value - h.lo) / (h.hi - h.lo);
  auto bin = static_cast<size_t>(frac * static_cast<double>(h.num_bins()));
  return std::min(bin, h.num_bins() - 1);
}

}  // namespace

Histogram OriginalHistogram(const Dataset& dataset, size_t attr,
                            size_t num_bins) {
  KANON_CHECK(!dataset.empty() && attr < dataset.dim());
  const Domain domain = dataset.ComputeDomain();
  Histogram h = MakeFrame(domain, attr, num_bins);
  const double w = 1.0 / static_cast<double>(dataset.num_records());
  for (RecordId r = 0; r < dataset.num_records(); ++r) {
    h.mass[BinOf(h, dataset.value(r, attr))] += w;
  }
  return h;
}

Histogram AnonymizedHistogram(const Dataset& dataset, const PartitionSet& ps,
                              size_t attr, size_t num_bins) {
  KANON_CHECK(!dataset.empty() && attr < dataset.dim());
  const Domain domain = dataset.ComputeDomain();
  Histogram h = MakeFrame(domain, attr, num_bins);
  const double n = static_cast<double>(dataset.num_records());
  const double bin_width = h.BinWidth();
  for (const Partition& p : ps.partitions) {
    const double mass = static_cast<double>(p.size()) / n;
    const double lo = p.box.lo(attr);
    const double hi = p.box.hi(attr);
    if (bin_width <= 0.0 || hi <= lo) {
      // Degenerate interval (or domain): all mass lands in one bin.
      h.mass[BinOf(h, lo)] += mass;
      continue;
    }
    // Spread the partition's mass uniformly over [lo, hi], clipped to the
    // histogram frame.
    const size_t first = BinOf(h, lo);
    const size_t last = BinOf(h, hi);
    for (size_t b = first; b <= last; ++b) {
      const double bin_lo = h.lo + bin_width * static_cast<double>(b);
      const double bin_hi = bin_lo + bin_width;
      const double overlap =
          std::min(hi, bin_hi) - std::max(lo, bin_lo);
      if (overlap > 0.0) {
        h.mass[b] += mass * overlap / (hi - lo);
      }
    }
  }
  return h;
}

double TotalVariationDistance(const Histogram& a, const Histogram& b) {
  KANON_CHECK(a.num_bins() == b.num_bins());
  double tv = 0.0;
  for (size_t i = 0; i < a.num_bins(); ++i) {
    tv += std::abs(a.mass[i] - b.mass[i]);
  }
  return 0.5 * tv;
}

double EarthMoversDistance(const Histogram& a, const Histogram& b) {
  KANON_CHECK(a.num_bins() == b.num_bins());
  if (a.num_bins() <= 1) return 0.0;
  double cumulative = 0.0;
  double emd = 0.0;
  for (size_t i = 0; i < a.num_bins(); ++i) {
    cumulative += a.mass[i] - b.mass[i];
    emd += std::abs(cumulative);
  }
  return emd / static_cast<double>(a.num_bins());
}

MarginalUtilityReport ComputeMarginalUtility(const Dataset& dataset,
                                             const PartitionSet& ps,
                                             size_t num_bins) {
  MarginalUtilityReport report;
  report.tv_per_attribute.reserve(dataset.dim());
  report.emd_per_attribute.reserve(dataset.dim());
  for (size_t a = 0; a < dataset.dim(); ++a) {
    const Histogram original = OriginalHistogram(dataset, a, num_bins);
    const Histogram anonymized =
        AnonymizedHistogram(dataset, ps, a, num_bins);
    report.tv_per_attribute.push_back(
        TotalVariationDistance(original, anonymized));
    report.emd_per_attribute.push_back(
        EarthMoversDistance(original, anonymized));
    report.mean_tv += report.tv_per_attribute.back();
    report.mean_emd += report.emd_per_attribute.back();
  }
  if (dataset.dim() > 0) {
    report.mean_tv /= static_cast<double>(dataset.dim());
    report.mean_emd /= static_cast<double>(dataset.dim());
  }
  return report;
}

}  // namespace kanon
