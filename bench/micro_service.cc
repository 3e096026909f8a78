// Micro-benchmarks of the concurrent anonymization service
// (google-benchmark).
//
// The interesting comparison is end-to-end ingest throughput against the
// single-threaded IncrementalAnonymizer baseline: the service adds a queue
// hop per record, which batching must amortize. The acceptance bar is that
// service throughput matches or beats the baseline once the batch size
// reaches 64. BM_GetRelease shows that the reader path costs the same
// whether the ingest thread is idle or saturated. BM_Publish times one
// publication at the service's cadence on trees of 100k to 1M records.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "anon/leaf_scan.h"
#include "anon/rtree_anonymizer.h"
#include "common/random.h"
#include "data/landsend_generator.h"
#include "service/anonymization_service.h"

namespace kanon {
namespace {

constexpr size_t kDim = 4;

Domain CubeDomain(double lo, double hi) {
  Domain d;
  d.lo.assign(kDim, lo);
  d.hi.assign(kDim, hi);
  return d;
}

std::vector<std::vector<double>> MakePoints(size_t n, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n);
  for (auto& p : points) {
    p.resize(kDim);
    for (auto& v : p) v = rng.UniformDouble(0, 1000);
  }
  return points;
}

// Single-threaded floor: insert everything, then extract the leaves and
// leaf-scan them into a release — the same end state the service reaches
// when Stop() publishes its final snapshot.
void BM_IncrementalInsertBaseline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto points = MakePoints(n);
  const Domain domain = CubeDomain(0, 1000);
  RTreeAnonymizerOptions options;
  options.base_k = 10;
  for (auto _ : state) {
    IncrementalAnonymizer anonymizer(kDim, options, &domain);
    for (size_t i = 0; i < n; ++i) {
      anonymizer.Insert(points[i], i, 0);
    }
    const auto leaves = ExtractLeafGroups(anonymizer.tree(), &domain);
    const PartitionSet release = LeafScan(leaves, options.base_k);
    benchmark::DoNotOptimize(release.num_partitions());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IncrementalInsertBaseline)->Arg(50000)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// End-to-end service ingest (enqueue + batched drain + tree insert) at
// increasing batch sizes. Stop() is inside the timed region so every
// record has reached the tree — and the final snapshot is published —
// when the clock stops. UseRealTime: the work happens on the ingest
// thread, so CPU time of the producer thread would be meaningless.
void BM_ServiceIngest(benchmark::State& state) {
  const size_t n = 50000;
  const size_t batch = static_cast<size_t>(state.range(0));
  const auto points = MakePoints(n);
  for (auto _ : state) {
    ServiceOptions options;
    options.anonymizer.base_k = 10;
    options.queue_capacity = 4096;
    options.max_batch = batch;
    options.snapshot_every = 0;  // measure ingest, not snapshot builds
    AnonymizationService service(kDim, CubeDomain(0, 1000), options);
    for (const auto& p : points) {
      (void)service.Ingest(p);
    }
    service.Stop();
    benchmark::DoNotOptimize(service.inserted());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceIngest)->Arg(1)->Arg(16)->Arg(64)->Arg(256)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Reader-path latency against a published snapshot. range(0) toggles a
// background producer hammering Ingest: readers only copy the published
// snapshot pointer, so the two variants should time the same.
void BM_GetRelease(benchmark::State& state) {
  const bool under_load = state.range(0) != 0;
  const auto points = MakePoints(20000);
  ServiceOptions options;
  options.anonymizer.base_k = 10;
  options.snapshot_every = 0;
  AnonymizationService service(kDim, CubeDomain(0, 1000), options);
  for (const auto& p : points) {
    (void)service.Ingest(p);
  }
  if (service.PublishNow() == nullptr) {
    state.SkipWithError("no snapshot published");
    return;
  }
  std::atomic<bool> done{false};
  std::thread churn;
  if (under_load) {
    churn = std::thread([&] {
      size_t i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        (void)service.Ingest(points[i++ % points.size()]);
      }
    });
  }
  for (auto _ : state) {
    auto release = service.GetRelease(50);
    benchmark::DoNotOptimize(release.ok());
  }
  done.store(true);
  if (churn.joinable()) churn.join();
  service.Stop();
}
BENCHMARK(BM_GetRelease)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One publication as the service's writer makes it: a tree of range(0)
// Lands End records (seed 1, base_k 10, DP height 10) takes 10k more
// inserts (untimed), then BuildSnapshot runs and replaces the current
// snapshot, which drops the previous one (timed). Publish cost tracks the
// blocks the 10k inserts wrote (blocks_cloned), not the tree size
// (blocks_shared). tree_bytes_per_record is the heap the tree itself
// holds, measured by mallinfo2 around the load.
void BM_Publish(benchmark::State& state) {
  constexpr size_t kEpoch = 10000;   // the service's snapshot_every
  constexpr size_t kPublishes = 10;  // fixed: each one grows the tree
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = LandsEndGenerator(1).Generate(n + kEpoch * kPublishes);
  const Domain domain = data.ComputeDomain();
  RTreeAnonymizerOptions options;
  options.base_k = 10;

  const size_t heap_before = mallinfo2().uordblks;
  IncrementalAnonymizer anonymizer(data.dim(), options, &domain);
  anonymizer.InsertBatch(data, 0, n);
  const size_t heap_after = mallinfo2().uordblks;
  DpCellCounter dp(domain, /*height=*/10);
  dp.Recount(anonymizer.tree());
  std::shared_ptr<const Snapshot> current =
      BuildSnapshot(anonymizer.tree(), domain, options.base_k, dp, 1);

  RecordId next = n;
  uint64_t epoch = 1;
  double cloned = 0.0, shared = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    for (const RecordId end = next + kEpoch; next < end; ++next) {
      anonymizer.Insert(data.row(next), next, data.sensitive(next));
      dp.Add(data.row(next));
    }
    state.ResumeTiming();
    current = BuildSnapshot(anonymizer.tree(), domain, options.base_k, dp,
                            ++epoch);
    cloned += static_cast<double>(current->info().blocks_cloned);
    shared += static_cast<double>(current->info().blocks_shared);
  }
  const double publishes = static_cast<double>(state.iterations());
  state.counters["blocks_cloned"] = cloned / publishes;
  state.counters["blocks_shared"] = shared / publishes;
  state.counters["tree_bytes_per_record"] =
      static_cast<double>(heap_after - heap_before) / static_cast<double>(n);
}
BENCHMARK(BM_Publish)->Arg(100000)->Arg(600000)->Arg(1000000)
    ->Iterations(10)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kanon
