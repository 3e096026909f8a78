// Fig 12(a-d): accuracy of random COUNT range queries on anonymized data.
//   (a) average error vs k: Mondrian uncompacted vs compacted vs R⁺-tree;
//   (b) error vs query selectivity for the same three methods;
//   (c) biased vs unbiased R⁺-tree on a zipcode-only workload, vs k;
//   (d) biased vs unbiased across selectivity.
// Beyond the paper:
//   (e) the differentially private release (/release/dp) against the
//       k-anonymous one, vs epsilon: noisy-hierarchy build time and the
//       average relative error of the grid range-query workload.
// Run a single part with --part=a|b|c|d|e, or everything by default.

#include <algorithm>
#include <cstring>
#include <string>

#include "anon/compaction.h"
#include "anon/mondrian.h"
#include "anon/rtree_anonymizer.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/landsend_generator.h"
#include "dp/dp_release.h"
#include "query/evaluator.h"
#include "query/workload.h"

namespace {

using namespace kanon;

constexpr size_t kZipcodeAttr = 0;

std::string FmtBin(const SelectivityBin& bin) {
  return "(" + bench::Fmt(bin.selectivity_lo, 4) + "," +
         bench::Fmt(bin.selectivity_hi, 4) + "]";
}

void PartA(const Dataset& data, const RTreeAnonymizer& anonymizer,
           const std::vector<LeafGroup>& leaves,
           const std::vector<RangeQuery>& queries) {
  std::cout << "\n[Fig 12(a)] average query error vs k (1000 random "
               "all-attribute range queries in the paper)\n";
  // Two R⁺-tree columns: the paper's configuration (one base-5 index, leaf
  // scan per k) and an index rebuilt at base k = k, which keeps leaf MBRs
  // at the published granularity.
  bench::TablePrinter table({"k", "mondrian", "mondrian_compacted",
                             "rtree_base5", "rtree_basek"});
  for (const size_t k : {5, 10, 25, 50, 100, 250}) {
    PartitionSet mondrian = Mondrian().Anonymize(data, k);
    PartitionSet compacted = mondrian;
    CompactPartitions(data, &compacted);
    const PartitionSet rtree = anonymizer.Granularize(data, leaves, k);
    RTreeAnonymizerOptions basek_options;
    basek_options.base_k = k;
    auto rtree_basek = RTreeAnonymizer(basek_options).Anonymize(data, k);
    if (!rtree_basek.ok()) std::exit(1);
    table.AddRow(
        {bench::FmtInt(k),
         bench::Fmt(EvaluateWorkload(data, mondrian, queries).average_error),
         bench::Fmt(EvaluateWorkload(data, compacted, queries).average_error),
         bench::Fmt(EvaluateWorkload(data, rtree, queries).average_error),
         bench::Fmt(
             EvaluateWorkload(data, *rtree_basek, queries).average_error)});
  }
  table.Print();
  std::cout << "Expected shape: rtree_basek <= mondrian_compacted < "
               "mondrian; errors grow with k; the base-5 leaf-scan column "
               "tracks compacted Mondrian near base k and loosens as k "
               "grows far above it.\n";
}

void PartB(const Dataset& data, const RTreeAnonymizer& anonymizer,
           const std::vector<LeafGroup>& leaves,
           const std::vector<RangeQuery>& queries) {
  std::cout << "\n[Fig 12(b)] error vs query selectivity (k=25)\n";
  const size_t k = 25;
  PartitionSet mondrian = Mondrian().Anonymize(data, k);
  PartitionSet compacted = mondrian;
  CompactPartitions(data, &compacted);
  const PartitionSet rtree = anonymizer.Granularize(data, leaves, k);
  const auto bins_m = EvaluateBySelectivity(data, mondrian, queries);
  const auto bins_c = EvaluateBySelectivity(data, compacted, queries);
  const auto bins_r = EvaluateBySelectivity(data, rtree, queries);
  bench::TablePrinter table({"selectivity", "queries", "mondrian",
                             "mondrian_compacted", "rtree"});
  for (size_t b = 0; b < bins_m.size(); ++b) {
    if (bins_m[b].count == 0) continue;
    table.AddRow({FmtBin(bins_m[b]), bench::FmtInt(bins_m[b].count),
                  bench::Fmt(bins_m[b].average_error),
                  bench::Fmt(bins_c[b].average_error),
                  bench::Fmt(bins_r[b].average_error)});
  }
  table.Print();
  std::cout << "Expected shape: errors fall as selectivity grows; method "
               "differences shrink at high selectivity.\n";
}

void PartCAndD(const Dataset& data, bool run_c, bool run_d) {
  Rng rng(1234);
  const auto zip_queries =
      MakeSingleAttributeWorkload(data, kZipcodeAttr, 500, &rng);

  RTreeAnonymizerOptions biased_options;
  biased_options.split.biased_axes = {kZipcodeAttr};
  const RTreeAnonymizer unbiased{};
  const RTreeAnonymizer biased(biased_options);
  auto unbiased_leaves = unbiased.BuildLeaves(data);
  auto biased_leaves = biased.BuildLeaves(data);
  if (!unbiased_leaves.ok() || !biased_leaves.ok()) {
    std::cerr << "build failed\n";
    std::exit(1);
  }

  if (run_c) {
    std::cout << "\n[Fig 12(c)] zipcode-workload error, biased vs unbiased "
                 "R⁺-tree, vs k\n";
    bench::TablePrinter table({"k", "unbiased", "biased", "improvement"});
    for (const size_t k : {5, 10, 25, 50, 100, 250}) {
      const double eu =
          EvaluateWorkload(data,
                           unbiased.Granularize(data, unbiased_leaves->leaves,
                                                k),
                           zip_queries)
              .average_error;
      const double eb =
          EvaluateWorkload(
              data, biased.Granularize(data, biased_leaves->leaves, k),
              zip_queries)
              .average_error;
      table.AddRow({bench::FmtInt(k), bench::Fmt(eu), bench::Fmt(eb),
                    bench::Fmt(eu / std::max(eb, 1e-12), 1) + "x"});
    }
    table.Print();
    std::cout << "Expected shape: biased error well below unbiased at every "
                 "k.\n";
  }

  if (run_d) {
    std::cout << "\n[Fig 12(d)] zipcode-workload error vs selectivity "
                 "(k=25), biased vs unbiased\n";
    const PartitionSet pu =
        unbiased.Granularize(data, unbiased_leaves->leaves, 25);
    const PartitionSet pb =
        biased.Granularize(data, biased_leaves->leaves, 25);
    const auto bins_u = EvaluateBySelectivity(data, pu, zip_queries);
    const auto bins_b = EvaluateBySelectivity(data, pb, zip_queries);
    bench::TablePrinter table(
        {"selectivity", "queries", "unbiased", "biased"});
    for (size_t b = 0; b < bins_u.size(); ++b) {
      if (bins_u[b].count == 0) continue;
      table.AddRow({FmtBin(bins_u[b]), bench::FmtInt(bins_u[b].count),
                    bench::Fmt(bins_u[b].average_error),
                    bench::Fmt(bins_b[b].average_error)});
    }
    table.Print();
    std::cout << "Expected shape: biased wins everywhere; the gap narrows "
                 "at high selectivity.\n";
  }
}

void PartE(const Dataset& data, const RTreeAnonymizer& anonymizer,
           const std::vector<LeafGroup>& leaves) {
  // The grid height the service publishes DP cells at by default
  // (ServiceOptions::dp_height), and k as in parts (b) and (d).
  constexpr size_t kHeight = 10;
  constexpr size_t k = 25;
  std::cout << "\n[Fig 12(e)] DP vs k-anonymous range-query error vs "
               "epsilon ("
            << data.num_records() << " records, grid height " << kHeight
            << ", k=" << k << ")\n";
  const DpGrid grid(data.ComputeDomain(), kHeight);
  std::vector<uint64_t> cells;
  // Rows are stored row-major and contiguous: one call bins the table.
  AccumulateCells(grid, data.row(0).data(), data.num_records(), &cells);
  const PartitionSet kanon = anonymizer.Granularize(data, leaves, k);
  const DpNoiseKey key = DeriveDpNoiseKey("fig12-part-e");
  bench::TablePrinter table({"epsilon", "build_ms", "dp_avg_rel_err",
                             "kanon_avg_rel_err", "noisy_records"});
  for (const double epsilon : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    // Median of 5 builds: each is a full noise + consistency pass over the
    // hierarchy, the cost a /release/dp cache miss pays.
    std::vector<double> build_ms;
    std::shared_ptr<const DpRelease> release;
    for (int rep = 0; rep < 5; ++rep) {
      Timer timer;
      release = BuildDpRelease(cells, grid.domain(), kHeight, epsilon, key);
      build_ms.push_back(timer.ElapsedMillis());
    }
    std::sort(build_ms.begin(), build_ms.end());
    const DpUtilityReport report =
        EvaluateReleaseUtility(cells, grid, release->counts, kanon);
    table.AddRow({bench::Fmt(epsilon, 2),
                  bench::Fmt(build_ms[build_ms.size() / 2], 2),
                  bench::Fmt(report.dp_avg_rel_error, 4),
                  bench::Fmt(report.kanon_avg_rel_error, 4),
                  std::to_string(release->counts.counts[1])});
  }
  table.Print();
  std::cout << "Expected shape: DP error falls as epsilon grows; the "
               "k-anonymous column is flat (it does not depend on "
               "epsilon).\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string part = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--part=", 7) == 0) part = argv[i] + 7;
  }
  bench::PrintHeader("fig12_query_error — COUNT query accuracy",
                     "Figures 12(a)-12(d) plus DP (e), Lands End data");

  const size_t n = bench::Scaled(40000);
  const Dataset data = LandsEndGenerator(12).Generate(n);
  Rng rng(99);
  const auto queries = MakeRecordPairWorkload(data, 500, &rng);

  const RTreeAnonymizer anonymizer{};
  auto built = anonymizer.BuildLeaves(data);
  if (!built.ok()) {
    std::cerr << "build failed: " << built.status() << "\n";
    return 1;
  }

  if (part == "all" || part == "a") {
    PartA(data, anonymizer, built->leaves, queries);
  }
  if (part == "all" || part == "b") {
    PartB(data, anonymizer, built->leaves, queries);
  }
  if (part == "all" || part == "c" || part == "d") {
    PartCAndD(data, part != "d", part != "c");
  }
  if (part == "all" || part == "e") {
    PartE(data, anonymizer, built->leaves);
  }
  return 0;
}
