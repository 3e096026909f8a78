// Ablation: bulk-loading strategies. The paper settled on the buffer tree
// after "experimenting with" space-filling-curve loaders (Section 2.1);
// this bench reproduces that design-choice comparison at k=10: build time,
// quality and query error for the buffer tree, tuple-at-a-time loading,
// STR packing, Hilbert and Z-order sorts, quadtree-style midpoint cuts and
// the uncompacted and compacted grid. STR and the curve sorts sort the
// whole table in memory; the buffer tree is the larger-than-memory loader.

#include "anon/grid_anonymizer.h"
#include "anon/leaf_scan.h"
#include "anon/rtree_anonymizer.h"
#include "bench_util.h"
#include "common/timer.h"
#include "data/landsend_generator.h"
#include "index/bulk_load.h"
#include "metrics/quality_report.h"
#include "query/evaluator.h"
#include "query/workload.h"

int main() {
  using namespace kanon;
  bench::PrintHeader(
      "ablation_bulkload — loading strategies at k=10",
      "Design-choice ablation for Section 2.1 (buffer tree vs curve sorts)");

  const size_t n = bench::Scaled(60000);
  const Dataset data = LandsEndGenerator(13).Generate(n);
  Rng rng(5);
  const auto queries = MakeRecordPairWorkload(data, 300, &rng);

  bench::TablePrinter table({"loader", "build_sec", "avg_ncp", "kl",
                             "query_err", "partitions"});

  auto report = [&](const std::string& name, double sec,
                    const PartitionSet& ps) {
    const QualityReport q = ComputeQuality(data, ps);
    const double err = EvaluateWorkload(data, ps, queries).average_error;
    table.AddRow({name, bench::Fmt(sec), bench::Fmt(q.average_ncp, 4),
                  bench::Fmt(q.kl_divergence), bench::Fmt(err),
                  bench::FmtInt(q.num_partitions)});
  };

  {
    Timer t;
    auto ps = RTreeAnonymizer().Anonymize(data, 10);
    const double sec = t.ElapsedSeconds();
    if (!ps.ok()) return 1;
    report("buffer-tree", sec, *ps);
  }
  {
    RTreeAnonymizerOptions options;
    options.backend = RTreeAnonymizerOptions::Backend::kTupleLoading;
    Timer t;
    auto ps = RTreeAnonymizer(options).Anonymize(data, 10);
    const double sec = t.ElapsedSeconds();
    if (!ps.ok()) return 1;
    report("tuple-loading", sec, *ps);
  }
  SortLoadConfig sort_config{.min_size = 5, .target_size = 15,
                             .grid_bits = 10};
  {
    Timer t;
    const auto leaves = StrBulkLoad(data, sort_config);
    const PartitionSet ps = LeafScan(leaves, 10);
    report("str-packing", t.ElapsedSeconds(), ps);
  }
  {
    Timer t;
    const auto leaves = CurveBulkLoad(data, CurveOrder::kHilbert,
                                      sort_config);
    const PartitionSet ps = LeafScan(leaves, 10);
    report("hilbert-sort", t.ElapsedSeconds(), ps);
  }
  {
    Timer t;
    const auto leaves =
        CurveBulkLoad(data, CurveOrder::kZOrder, sort_config);
    const PartitionSet ps = LeafScan(leaves, 10);
    report("zorder-sort", t.ElapsedSeconds(), ps);
  }
  {
    // Quadtree-style, data-independent region-midpoint cuts (the index
    // family the paper's conclusion weighs via Kim & Patel's CIDR'07
    // argument): cells cannot honor an occupancy floor, so leaves are
    // min-1 and the leaf scan merges them up to k.
    RTreeAnonymizerOptions options;
    options.backend = RTreeAnonymizerOptions::Backend::kTupleLoading;
    options.base_k = 1;
    options.leaf_capacity_factor = 15;
    options.split.policy = SplitPolicy::kRegionMidpoint;
    Timer t;
    auto ps = RTreeAnonymizer(options).Anonymize(data, 10);
    const double sec = t.ElapsedSeconds();
    if (!ps.ok()) return 1;
    report("quadtree-style", sec, *ps);
  }
  {
    Timer t;
    auto ps = GridAnonymizer().Anonymize(data, 10);
    const double sec = t.ElapsedSeconds();
    if (!ps.ok()) return 1;
    report("grid-uncompacted", sec, *ps);
    GridAnonymizerOptions compact_options;
    compact_options.compact = true;
    Timer t2;
    auto cps = GridAnonymizer(compact_options).Anonymize(data, 10);
    if (!cps.ok()) return 1;
    report("grid-compacted", t2.ElapsedSeconds(), *cps);
  }
  table.Print();
  std::cout << "\nExpected shape: the loaders trade off differently — the "
               "buffer tree balances quality and query error and is the "
               "only one that is incremental and larger-than-memory; curve "
               "sorts run in memory, are fastest to build but suffer on "
               "query error at this dimensionality (the drawback that led "
               "the paper to the buffer tree).\n";
  return 0;
}
