#include "dp/dp_release.h"

#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/number_text.h"
#include "dp/dp_rng.h"

namespace kanon {
namespace {

int64_t ClampedRound(double v) {
  if (!(v > 0.0)) return 0;
  return static_cast<int64_t>(std::llround(v));
}

}  // namespace

std::vector<double> SplitDpBudget(double epsilon, size_t height) {
  std::vector<double> eps(height + 1);
  double total_weight = 0.0;
  for (size_t i = 0; i <= height; ++i) {
    eps[i] = std::pow(2.0, static_cast<double>(i) / 3.0);
    total_weight += eps[i];
  }
  for (size_t i = 0; i <= height; ++i) {
    eps[i] = epsilon * eps[i] / total_weight;
  }
  return eps;
}

DpHierarchyCounts NoisyConsistentHierarchy(const std::vector<uint64_t>& cells,
                                           size_t height, double epsilon,
                                           const DpNoiseKey& key) {
  const size_t leaves = size_t{1} << height;
  const size_t nodes = size_t{2} << height;  // [0] unused
  KANON_CHECK(cells.size() == leaves);

  // Exact hierarchy.
  std::vector<double> exact(nodes, 0.0);
  for (size_t i = 0; i < leaves; ++i) {
    exact[leaves + i] = static_cast<double>(cells[i]);
  }
  for (size_t v = leaves - 1; v >= 1; --v) {
    exact[v] = exact[2 * v] + exact[2 * v + 1];
  }

  // Per-level noise scales. The RNG stream is the epsilon bit pattern, so
  // two releases at different epsilons never reuse noise under one key.
  const std::vector<double> level_eps = SplitDpBudget(epsilon, height);
  std::vector<double> level_alpha(height + 1);
  std::vector<double> level_var(height + 1);
  for (size_t i = 0; i <= height; ++i) {
    level_alpha[i] = std::exp(-level_eps[i]);
    // A vanishing variance breaks the inverse-variance weights below;
    // floor it so an enormous epsilon degrades to "trust this level
    // completely" instead of dividing by zero.
    level_var[i] =
        std::max(TwoSidedGeometricVariance(level_alpha[i]), 1e-12);
  }
  const CounterRng rng(key, std::bit_cast<uint64_t>(epsilon));

  std::vector<double> noisy(nodes, 0.0);
  for (size_t v = 1; v < nodes; ++v) {
    const size_t level = DpGrid::NodeLevel(v);
    noisy[v] = exact[v] + static_cast<double>(SampleTwoSidedGeometric(
                              rng, 2 * v, level_alpha[level]));
  }

  // Hay-style consistency, up pass: combine each node's own noisy count
  // with the (independent) sum of its children's estimates, weighting by
  // inverse variance.
  std::vector<double> est(nodes, 0.0);  // post-up-pass estimate
  std::vector<double> var(nodes, 0.0);  // its variance
  for (size_t v = nodes - 1; v >= 1; --v) {
    const size_t level = DpGrid::NodeLevel(v);
    if (v >= leaves) {
      est[v] = noisy[v];
      var[v] = level_var[level];
      continue;
    }
    const double child_sum = est[2 * v] + est[2 * v + 1];
    const double child_var = var[2 * v] + var[2 * v + 1];
    const double w_own = 1.0 / level_var[level];
    const double w_children = 1.0 / child_var;
    est[v] = (noisy[v] * w_own + child_sum * w_children) /
             (w_own + w_children);
    var[v] = 1.0 / (w_own + w_children);
  }

  // Down pass: push each node's residual into its children proportionally
  // to their variances, making parent == sum(children) exact in the reals.
  for (size_t v = 1; v < leaves; ++v) {
    const size_t l = 2 * v;
    const size_t r = 2 * v + 1;
    const double residual = est[v] - (est[l] + est[r]);
    const double total_var = var[l] + var[r];
    const double share =
        total_var > 0.0 ? var[l] / total_var : 0.5;
    est[l] += residual * share;
    est[r] += residual * (1.0 - share);
  }

  // Deterministic top-down integerization: round the root once, then split
  // every integer total among the children proportionally to their clamped
  // real estimates. Non-negativity and parent == sum(children) hold by
  // construction at every node.
  DpHierarchyCounts out;
  out.height = height;
  out.counts.assign(nodes, 0);
  out.counts[1] = ClampedRound(est[1]);
  for (size_t v = 1; v < leaves; ++v) {
    const int64_t total = out.counts[v];
    const double a = std::max(0.0, est[2 * v]);
    const double b = std::max(0.0, est[2 * v + 1]);
    int64_t left;
    if (a + b > 0.0) {
      left = ClampedRound(static_cast<double>(total) * a / (a + b));
    } else {
      left = total / 2;
    }
    if (left > total) left = total;
    out.counts[2 * v] = left;
    out.counts[2 * v + 1] = total - left;
  }
  return out;
}

namespace {

// `box` is scratch space every level of the recursion reuses: a node is
// done with its box before its children overwrite it.
double RangeCountNode(const DpHierarchyCounts& h, const DpGrid& grid,
                      const Mbr& query, size_t v, Mbr* box) {
  const int64_t count = h.counts[v];
  if (count == 0) return 0.0;
  grid.NodeBox(v, box);
  if (!box->Intersects(query)) return 0.0;
  if (query.ContainsBox(*box)) return static_cast<double>(count);
  if (DpGrid::NodeLevel(v) == h.height) {
    return static_cast<double>(count) * box->IntersectionFraction(query);
  }
  return RangeCountNode(h, grid, query, 2 * v, box) +
         RangeCountNode(h, grid, query, 2 * v + 1, box);
}

}  // namespace

double DpRangeCount(const DpHierarchyCounts& h, const DpGrid& grid,
                    const Mbr& query) {
  if (h.counts.size() < 2) return 0.0;
  Mbr box(grid.dim());
  return RangeCountNode(h, grid, query, 1, &box);
}

std::shared_ptr<const DpRelease> BuildDpRelease(
    const std::vector<uint64_t>& cells, const Domain& domain, size_t height,
    double epsilon, const DpNoiseKey& key) {
  DpGrid grid(domain, height);
  DpHierarchyCounts counts =
      NoisyConsistentHierarchy(cells, height, epsilon, key);

  // Canonical body. The consistent hierarchy is fully determined by its
  // leaf row (parents are exact sums), so the leaves are the release;
  // "records" is the *noisy* root total — no exact count ever leaves the
  // mechanism, and no noise-key material does either.
  // Doubles go through AppendDouble, so the body is byte-stable across
  // processes.
  std::string body = "{\"semantics\":\"dp\",\"epsilon\":";
  AppendDouble(&body, epsilon);
  body += ",\"height\":" + std::to_string(height) +
          ",\"dim\":" + std::to_string(domain.dim());
  body += ",\"domain\":[";
  for (size_t a = 0; a < domain.dim(); ++a) {
    if (a > 0) body += ',';
    body += '[';
    AppendDouble(&body, domain.lo[a]);
    body += ',';
    AppendDouble(&body, domain.hi[a]);
    body += ']';
  }
  body += "],\"records\":" + std::to_string(counts.counts[1]);
  body += ",\"cells\":[";
  const size_t leaves = grid.num_leaves();
  for (size_t i = 0; i < leaves; ++i) {
    if (i > 0) body += ',';
    body += std::to_string(counts.counts[leaves + i]);
  }
  body += "]}";

  return std::make_shared<const DpRelease>(DpRelease{
      epsilon, std::move(grid), std::move(counts), std::move(body)});
}

DpUtilityReport EvaluateReleaseUtility(const std::vector<uint64_t>& cells,
                                       const DpGrid& grid,
                                       const DpHierarchyCounts& dp,
                                       const PartitionSet& kanon) {
  DpUtilityReport report;
  double kanon_err = 0.0;
  double dp_err = 0.0;
  // Node boxes at two coarse levels: deterministic, cell-aligned (truth is
  // exact), and spanning two selectivities like the paper's fig-12 sweep.
  // On grids of height <= 2 both picks clamp to the same level; evaluate
  // that query set once, not twice.
  const size_t coarse = std::min<size_t>(grid.height(), 2);
  const size_t fine = std::min<size_t>(grid.height(), 4);
  std::vector<size_t> levels = {coarse};
  if (fine != coarse) levels.push_back(fine);
  Mbr query(grid.dim());
  for (const size_t level : levels) {
    const size_t first = size_t{1} << level;
    for (size_t v = first; v < first * 2; ++v) {
      size_t lo, hi;
      grid.LeafRange(v, &lo, &hi);
      double truth = 0.0;
      for (size_t c = lo; c < hi; ++c) {
        truth += static_cast<double>(cells[c]);
      }
      grid.NodeBox(v, &query);
      double kanon_est = 0.0;
      for (const Partition& p : kanon.partitions) {
        kanon_est += static_cast<double>(p.size()) *
                     p.box.IntersectionFraction(query);
      }
      const double dp_est = DpRangeCount(dp, grid, query);
      const double denom = std::max(truth, 1.0);
      kanon_err += std::abs(kanon_est - truth) / denom;
      dp_err += std::abs(dp_est - truth) / denom;
      ++report.num_queries;
    }
  }
  if (report.num_queries > 0) {
    report.kanon_avg_rel_error = kanon_err / report.num_queries;
    report.dp_avg_rel_error = dp_err / report.num_queries;
  }
  return report;
}

}  // namespace kanon
