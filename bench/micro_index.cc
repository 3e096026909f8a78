// Micro-benchmarks of the core index operations (google-benchmark).

#include <benchmark/benchmark.h>

#include <memory>

#include "anon/compaction.h"
#include "anon/leaf_scan.h"
#include "anon/mondrian.h"
#include "anon/rtree_anonymizer.h"
#include "common/random.h"
#include "data/dataset.h"
#include "data/landsend_generator.h"
#include "index/hilbert.h"
#include "index/rplus_tree.h"
#include "storage/buffer_pool.h"

namespace kanon {
namespace {

Dataset MakeData(size_t n, size_t dim, uint64_t seed = 1) {
  Dataset d(Schema::Numeric(dim));
  Rng rng(seed);
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = rng.UniformDouble(0, 1000);
    d.Append(p, static_cast<int32_t>(i % 8));
  }
  return d;
}

void BM_RPlusTreeInsert(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const Dataset data = MakeData(100000, dim);
  RTreeConfig config;
  config.min_leaf = 5;
  config.max_leaf = 15;
  size_t i = 0;
  RPlusTree tree(dim, config);
  for (auto _ : state) {
    tree.Insert(data.row(i % data.num_records()), i, 0);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_RPlusTreeInsert)->Arg(2)->Arg(4)->Arg(8);

void BM_RPlusTreeSearch(benchmark::State& state) {
  const Dataset data = MakeData(50000, 4);
  RTreeConfig config;
  config.min_leaf = 5;
  config.max_leaf = 15;
  RPlusTree tree(4, config);
  for (RecordId r = 0; r < data.num_records(); ++r) {
    tree.Insert(data.row(r), r, 0);
  }
  Rng rng(3);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    const double x = rng.UniformDouble(0, 900);
    const double y = rng.UniformDouble(0, 900);
    const Mbr q = Mbr::FromBounds({x, y, 0, 0}, {x + 50, y + 50, 1000, 1000});
    out.clear();
    tree.SearchRange(q, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RPlusTreeSearch);

void BM_LeafScan(benchmark::State& state) {
  const Dataset data = MakeData(50000, 4);
  RTreeAnonymizer anonymizer;
  auto built = anonymizer.BuildLeaves(data);
  if (!built.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    const PartitionSet ps = LeafScan(built->leaves, k);
    benchmark::DoNotOptimize(ps.partitions.data());
  }
}
BENCHMARK(BM_LeafScan)->Arg(10)->Arg(100)->Arg(1000);

void BM_HilbertKey(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<uint32_t> coords(dim);
  for (auto _ : state) {
    for (auto& c : coords) c = static_cast<uint32_t>(rng.Uniform(1 << 10));
    benchmark::DoNotOptimize(
        HilbertKey({coords.data(), coords.size()}, 10));
  }
}
BENCHMARK(BM_HilbertKey)->Arg(2)->Arg(8);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  MemPager pager;
  BufferPool pool(&pager, 64);
  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) {
    auto h = pool.New();
    ids.push_back(h->id());
  }
  Rng rng(5);
  for (auto _ : state) {
    auto h = pool.Fetch(ids[rng.Uniform(ids.size())]);
    benchmark::DoNotOptimize(h->data());
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_BufferTreeLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = MakeData(n, 4);
  for (auto _ : state) {
    RTreeAnonymizer anonymizer;
    auto built = anonymizer.BuildLeaves(data);
    benchmark::DoNotOptimize(built.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BufferTreeLoad)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_MondrianAnonymize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = MakeData(n, 4);
  for (auto _ : state) {
    const PartitionSet ps = Mondrian().Anonymize(data, 10);
    benchmark::DoNotOptimize(ps.partitions.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MondrianAnonymize)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_Compaction(benchmark::State& state) {
  const Dataset data = MakeData(50000, 4);
  const PartitionSet base = Mondrian().Anonymize(data, 10);
  for (auto _ : state) {
    PartitionSet ps = base;
    CompactPartitions(data, &ps);
    benchmark::DoNotOptimize(ps.partitions.data());
  }
  state.SetItemsProcessed(50000 * static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Compaction)->Unit(benchmark::kMillisecond);

// IncrementalAnonymizer::Repack, the one-time top-down rebuild of a tree
// of N Lands End records inserted with the domain hint, as the service
// inserts them (base_k 10). Only the Repack is timed; each iteration
// first builds a fresh incremental tree.
void BM_Repack(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = LandsEndGenerator(1).Generate(n);
  const Domain domain = data.ComputeDomain();
  RTreeIndexOptions options;
  options.base_k = 10;
  std::unique_ptr<IncrementalAnonymizer> anonymizer;
  for (auto _ : state) {
    state.PauseTiming();
    anonymizer =
        std::make_unique<IncrementalAnonymizer>(data.dim(), options, &domain);
    anonymizer->InsertBatch(data, 0, n);
    state.ResumeTiming();
    anonymizer->Repack();
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Repack)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kanon
