// Fig 7(a): bulk anonymization time, R⁺-tree bulk load vs top-down Mondrian,
// over the anonymity parameter k. Paper shape: the R⁺-tree is roughly flat
// in k (the index is built once at base k=5; the requested k is served by a
// leaf scan) and about an order of magnitude faster; Mondrian's time *falls*
// as k grows because fewer recursive cuts are needed.

#include "anon/mondrian.h"
#include "anon/rtree_anonymizer.h"
#include "bench_util.h"
#include "common/timer.h"
#include "data/landsend_generator.h"

int main() {
  using namespace kanon;
  bench::PrintHeader(
      "fig7a_bulkload — bulk anonymization time vs k",
      "Figure 7(a), Lands End data (synthetic stand-in; see DESIGN.md)");

  const size_t n = bench::Scaled(120000);
  std::cout << "Generating " << n << " Lands End-like records...\n";
  const Dataset data = LandsEndGenerator(42).Generate(n);

  bench::TablePrinter table(
      {"k", "rtree_sec", "topdown1_sec", "topdown4_sec", "mondrian_sec",
       "speedup", "rtree_parts", "mondrian_parts"});
  for (const size_t k : {5, 10, 25, 50, 100, 250, 500, 1000}) {
    Timer rtree_timer;
    RTreeAnonymizer anonymizer;  // base k = 5, buffer-tree backend
    auto rtree_ps = anonymizer.Anonymize(data, k);
    const double rtree_sec = rtree_timer.ElapsedSeconds();
    if (!rtree_ps.ok()) {
      std::cerr << "rtree failed: " << rtree_ps.status() << "\n";
      return 1;
    }

    // Top-down bulk-load backend, serial and on 4 threads. Both produce
    // the same tree (the build is deterministic), so the column pair
    // isolates the parallel speedup of the build itself.
    double topdown_sec[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      RTreeAnonymizerOptions to;
      to.backend = RTreeAnonymizerOptions::Backend::kTopDownBulkLoad;
      to.threads = i == 0 ? 1 : 4;
      Timer topdown_timer;
      auto topdown_ps = RTreeAnonymizer(to).Anonymize(data, k);
      topdown_sec[i] = topdown_timer.ElapsedSeconds();
      if (!topdown_ps.ok()) {
        std::cerr << "top-down bulk load failed: " << topdown_ps.status()
                  << "\n";
        return 1;
      }
    }

    Timer mondrian_timer;
    const PartitionSet mondrian_ps = Mondrian().Anonymize(data, k);
    const double mondrian_sec = mondrian_timer.ElapsedSeconds();

    table.AddRow({bench::FmtInt(k), bench::Fmt(rtree_sec),
                  bench::Fmt(topdown_sec[0]), bench::Fmt(topdown_sec[1]),
                  bench::Fmt(mondrian_sec),
                  bench::Fmt(mondrian_sec / rtree_sec, 1) + "x",
                  bench::FmtInt(rtree_ps->num_partitions()),
                  bench::FmtInt(mondrian_ps.num_partitions())});
  }
  table.Print();
  std::cout << "\nExpected shape: rtree_sec flat in k (one base-5 index "
               "serves every granularity); mondrian_sec decreasing in k.\n"
               "Note on absolute speed: the paper reports the R-tree an "
               "order of magnitude faster than its top-down baseline; our "
               "clean-room Mondrian is an optimized in-memory C++ "
               "implementation and wins on memory-resident data — see "
               "EXPERIMENTS.md for the discussion. The R-tree's advantages "
               "are k-independence (this figure), incrementality (7b) and "
               "larger-than-memory operation (8a/8b).\n";
  return 0;
}
