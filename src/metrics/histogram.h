#ifndef KANON_METRICS_HISTOGRAM_H_
#define KANON_METRICS_HISTOGRAM_H_

#include <vector>

#include "anon/partition.h"
#include "data/dataset.h"

namespace kanon {

/// An equi-width histogram over one attribute's domain.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<double> mass;  // sums to ~1 for non-degenerate input

  size_t num_bins() const { return mass.size(); }
  double BinWidth() const {
    return mass.empty() ? 0.0
                        : (hi - lo) / static_cast<double>(mass.size());
  }
};

/// Histogram of the original data on attribute `attr`: each record adds
/// 1/n to the bin containing its exact value.
Histogram OriginalHistogram(const Dataset& dataset, size_t attr,
                            size_t num_bins);

/// Histogram of the anonymized table on attribute `attr`: every record's
/// mass (1/n) is spread uniformly over its partition box's interval on
/// that attribute — the way an analyst would reconstruct a marginal from a
/// generalized table. Bins use the original data's domain so the two
/// histograms are directly comparable.
Histogram AnonymizedHistogram(const Dataset& dataset, const PartitionSet& ps,
                              size_t attr, size_t num_bins);

/// Total variation distance between two comparable histograms:
/// 0.5 * sum |a_i - b_i|, in [0, 1]. The attribute-level utility loss of
/// the anonymization.
double TotalVariationDistance(const Histogram& a, const Histogram& b);

/// Earth mover's distance in bin units (1-D Wasserstein over the
/// cumulative difference), normalized by the number of bins so the result
/// lies in [0, 1]. More forgiving than total variation to mass that moved
/// only slightly.
double EarthMoversDistance(const Histogram& a, const Histogram& b);

/// Per-attribute total variation distances, plus their mean — a utility
/// summary of the whole anonymization ("how distorted are the published
/// marginals").
struct MarginalUtilityReport {
  std::vector<double> tv_per_attribute;
  std::vector<double> emd_per_attribute;
  double mean_tv = 0.0;
  double mean_emd = 0.0;
};

MarginalUtilityReport ComputeMarginalUtility(const Dataset& dataset,
                                             const PartitionSet& ps,
                                             size_t num_bins = 32);

}  // namespace kanon

#endif  // KANON_METRICS_HISTOGRAM_H_
