// bulkload_smoke — CI perf smoke for the parallel bulk-load pipeline.
//
//   bulkload_smoke [--records N] [--threads T] [--json PATH]
//
// Generates N Agrawal records (default 1,000,000), bulk-loads the
// R⁺-tree serially and with T threads (default 4), verifies the two
// trees serialize to byte-identical snapshots (the pipeline's
// determinism contract), and reports wall times plus the speedup. The
// same numbers are always written as a machine-readable artifact —
// BENCH_bulkload.json in the working directory unless --json names
// another path (CI uploads it).
//
// Exit codes: 0 on success, 1 on a build error or a determinism
// mismatch — so CI fails loudly when the parallel path diverges.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/timer.h"
#include "data/agrawal_generator.h"
#include "index/bulk_load.h"
#include "index/tree_persistence.h"
#include "storage/pager.h"

namespace {

using namespace kanon;

struct LoadResult {
  double seconds = 0;
  size_t records = 0;
  int height = 0;
  TreeSnapshot snapshot;
};

/// Builds the tree with `threads` total threads and serializes it into
/// `pager` so the caller can compare snapshots byte for byte.
StatusOr<LoadResult> Load(const Dataset& data, const RTreeConfig& config,
                          size_t threads, MemPager* out_pager) {
  std::unique_ptr<ThreadPool> workers;
  if (threads > 1) workers = std::make_unique<ThreadPool>(threads - 1);
  Timer timer;
  const RPlusTree tree =
      TopDownBulkLoad(DatasetRecords(data), config, workers.get());
  LoadResult result;
  result.seconds = timer.ElapsedSeconds();
  result.records = tree.size();
  result.height = tree.height();
  KANON_ASSIGN_OR_RETURN(result.snapshot, SaveTree(tree, out_pager));
  return result;
}

/// Byte-compares the two serialized snapshots by walking both page chains
/// (each page starts with the PageId of its successor) in lockstep.
bool SnapshotsIdentical(MemPager* a, const TreeSnapshot& sa, MemPager* b,
                        const TreeSnapshot& sb) {
  if (sa.byte_size != sb.byte_size || sa.crc32 != sb.crc32) return false;
  std::vector<char> page_a(a->page_size());
  std::vector<char> page_b(b->page_size());
  PageId pa = sa.first_page;
  PageId pb = sb.first_page;
  while (pa != kInvalidPageId && pb != kInvalidPageId) {
    if (!a->Read(pa, page_a.data()).ok()) return false;
    if (!b->Read(pb, page_b.data()).ok()) return false;
    if (std::memcmp(page_a.data(), page_b.data(), page_a.size()) != 0) {
      return false;
    }
    std::memcpy(&pa, page_a.data(), sizeof(pa));
    std::memcpy(&pb, page_b.data(), sizeof(pb));
  }
  return pa == pb;  // both chains ended together
}

}  // namespace

int main(int argc, char** argv) {
  size_t records = 1000000;
  size_t threads = 4;
  std::string json_path = "BENCH_bulkload.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--records") {
      const char* v = next();
      if (v == nullptr) return 2;
      records = std::strtoul(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return 2;
      threads = std::strtoul(v, nullptr, 10);
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return 2;
      json_path = v;
    } else {
      std::cerr << "usage: bulkload_smoke [--records N] [--threads T] "
                   "[--json PATH]\n";
      return 2;
    }
  }

  bench::PrintHeader("bulkload_smoke — serial vs parallel bulk load",
                     "CI perf smoke (parallel pipeline determinism + speed)");
  std::cout << "Generating " << records << " Agrawal records...\n";
  const Dataset data = AgrawalGenerator(42).Generate(records);

  RTreeConfig config;
  config.min_leaf = 5;
  config.max_leaf = 10;

  MemPager serial_pager;
  auto serial = Load(data, config, 1, &serial_pager);
  if (!serial.ok()) {
    std::cerr << "serial build failed: " << serial.status() << "\n";
    return 1;
  }
  MemPager parallel_pager;
  auto parallel = Load(data, config, threads, &parallel_pager);
  if (!parallel.ok()) {
    std::cerr << "parallel build failed: " << parallel.status() << "\n";
    return 1;
  }

  const bool identical =
      SnapshotsIdentical(&serial_pager, serial->snapshot, &parallel_pager,
                         parallel->snapshot);
  const double speedup = parallel->seconds > 0
                             ? serial->seconds / parallel->seconds
                             : 0;

  bench::TablePrinter table({"mode", "threads", "seconds", "records",
                             "height"});
  table.AddRow({"serial", "1", bench::Fmt(serial->seconds),
                bench::FmtInt(serial->records),
                bench::FmtInt(static_cast<size_t>(serial->height))});
  table.AddRow({"parallel", bench::FmtInt(threads),
                bench::Fmt(parallel->seconds),
                bench::FmtInt(parallel->records),
                bench::FmtInt(static_cast<size_t>(parallel->height))});
  table.Print();
  std::cout << "speedup: " << bench::Fmt(speedup, 2) << "x\n";
  std::cout << "snapshots byte-identical: " << (identical ? "yes" : "NO")
            << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"records\": " << records << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"serial_seconds\": " << serial->seconds << ",\n"
        << "  \"parallel_seconds\": " << parallel->seconds << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"byte_identical\": " << (identical ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (!identical) {
    std::cerr << "FAIL: parallel snapshot differs from serial\n";
    return 1;
  }
  return 0;
}
