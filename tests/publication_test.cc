// Publication by shared leaf blocks: a snapshot takes the tree's frozen
// blocks and a copy of the writer's DP cell counts, and the writer clones
// a frozen block before it changes it. These tests hold that path to the
// from-scratch algorithm it replaced (ExtractLeafGroups + LeafScan, and
// AccumulateCells over every record), check that a published snapshot
// never changes afterwards, and count what a publication shares. The
// ReaderScans... case is the TSan stress for a reader scanning an old
// snapshot while the writer clones and splits its blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "anon/leaf_scan.h"
#include "common/random.h"
#include "common/thread.h"
#include "differential.h"
#include "dp/dp_hierarchy.h"
#include "net/anon_http.h"
#include "service/anonymization_service.h"
#include "shard/stitched_snapshot.h"

namespace kanon {
namespace {

constexpr size_t kBaseK = 5;
constexpr size_t kDpHeight = 6;
const size_t kReleaseK1[] = {5, 12, 40, 300};

/// A seeded 2-D stream over the domain [0, 100]^2 with every kind of point
/// a publication must carry: clustered duplicates (overfull leaves), a
/// uniform spread (splits everywhere) and one point in eight outside the
/// domain (clipped regions, boundary DP cells).
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}

  std::vector<double> Next() {
    const uint64_t kind = rng_.UniformInt(0, 7);
    if (kind == 0) {
      return {rng_.UniformDouble(-60, 160), rng_.UniformDouble(-60, 160)};
    }
    if (kind == 1) {
      return {static_cast<double>(rng_.UniformInt(0, 3)) * 25.0, 50.0};
    }
    return {rng_.UniformDouble(0, 100), rng_.UniformDouble(0, 100)};
  }
  int32_t Sensitive() { return static_cast<int32_t>(rng_.UniformInt(0, 4)); }

 private:
  Rng rng_;
};

RTreeIndexOptions Options() {
  RTreeIndexOptions options;
  options.base_k = kBaseK;
  return options;
}

net::HttpRequest ReleaseRequest(size_t k1, bool summary, bool rids) {
  net::HttpRequest request;
  request.method = "GET";
  request.path = "/release/query";
  request.query = "k1=" + std::to_string(k1) + (summary ? "&summary=1" : "") +
                  (rids ? "&rids=1" : "");
  request.target = request.path + "?" + request.query;
  return request;
}

/// Every body a client can fetch from `snapshot` at the test's k1 values.
std::vector<std::string> Bodies(std::shared_ptr<const Snapshot> snapshot,
                                const Domain& domain) {
  const StitchedSnapshot view({std::move(snapshot)}, domain);
  std::vector<std::string> bodies;
  for (const size_t k1 : kReleaseK1) {
    for (const bool summary : {false, true}) {
      bodies.push_back(
          net::RenderRelease(&view, ReleaseRequest(k1, summary, false)).body);
    }
    bodies.push_back(
        net::RenderRelease(&view, ReleaseRequest(k1, false, true)).body);
  }
  return bodies;
}

/// Everything a snapshot shows about its leaves, copied out: what must
/// not change once it is published.
struct Frozen {
  std::vector<uint64_t> rids;
  std::vector<int32_t> sensitive;
  std::vector<double> values;  // points, regions and MBRs
};

Frozen CopyFragments(const Snapshot& snapshot) {
  Frozen out;
  for (const LeafFragment& block : snapshot.fragments()) {
    out.rids.insert(out.rids.end(), block->rids().begin(),
                    block->rids().end());
    out.sensitive.insert(out.sensitive.end(), block->sensitive().begin(),
                         block->sensitive().end());
    for (const auto span : {block->points(), block->region().lo,
                            block->region().hi, block->mbr().lo,
                            block->mbr().hi}) {
      out.values.insert(out.values.end(), span.begin(), span.end());
    }
  }
  return out;
}

// A block keeps its region, grows its MBR with each append, and a clone
// is a writable copy of records and bounds that leaves the original as
// it was.
TEST(LeafBlockTest, CloneCopiesRecordsAndBoundsAndIsWritable) {
  Region region = Region::Whole(2);
  region.lo[0] = 0.0;
  region.hi[0] = 10.0;
  const auto block = LeafBlock::Make(region.view(), 2);
  EXPECT_TRUE(block->mbr().empty());
  block->Append(std::vector<double>{1.0, 5.0}, 7, 3);
  block->Append(std::vector<double>{4.0, -2.0}, 9, 1);
  EXPECT_TRUE(block->full());
  block->Freeze();

  const auto copy = block->Clone(LeafBlock::GrowCapacity(block->size()));
  EXPECT_FALSE(copy->frozen());
  EXPECT_GT(copy->capacity(), copy->size());
  copy->Append(std::vector<double>{9.0, 8.0}, 11, 0);

  EXPECT_EQ(std::vector<uint64_t>(block->rids().begin(), block->rids().end()),
            (std::vector<uint64_t>{7, 9}));
  EXPECT_EQ(Mbr::FromView(block->mbr()),
            Mbr::FromBounds({1.0, -2.0}, {4.0, 5.0}));
  EXPECT_EQ(std::vector<uint64_t>(copy->rids().begin(), copy->rids().end()),
            (std::vector<uint64_t>{7, 9, 11}));
  EXPECT_EQ(std::vector<int32_t>(copy->sensitive().begin(),
                                 copy->sensitive().end()),
            (std::vector<int32_t>{3, 1, 0}));
  EXPECT_EQ(Mbr::FromView(copy->mbr()),
            Mbr::FromBounds({1.0, -2.0}, {9.0, 8.0}));
  EXPECT_EQ(Region::FromView(copy->region()).ToString(), region.ToString());
  EXPECT_EQ(copy->point(2)[1], 8.0);
}

// At every epoch of a stream with splits, overfull leaves and
// out-of-domain points, the shared-block publication equals the
// algorithm it replaced: releases and rid-less boxes are the leaf scan
// over ExtractLeafGroups, the DP cells are AccumulateCells over every
// record so far, and every rendered body is byte-identical to that of a
// tree built from scratch over the same records and published once.
TEST(PublicationTest, EveryEpochMatchesTheFromScratchAlgorithm) {
  const Domain domain = testutil::SquareDomain(0, 100);
  const DpGrid grid(domain, kDpHeight);
  const RTreeIndexOptions options = Options();
  IncrementalAnonymizer live(2, options, &domain);
  DpCellCounter dp(domain, kDpHeight);
  Stream stream(11);
  std::vector<double> all_points;
  std::vector<int32_t> all_sensitive;
  uint64_t epoch = 0;
  size_t leaves = 0;
  while (all_sensitive.size() < 6000) {
    for (size_t i = 0; i < 397; ++i) {
      const std::vector<double> p = stream.Next();
      const int32_t s = stream.Sensitive();
      live.Insert(p, all_sensitive.size(), s);
      dp.Add(p);
      all_points.insert(all_points.end(), p.begin(), p.end());
      all_sensitive.push_back(s);
    }
    const auto snapshot =
        BuildSnapshot(live.tree(), domain, options.base_k, dp, ++epoch);
    ASSERT_GT(snapshot->fragments().size(), leaves);  // leaves split
    leaves = snapshot->fragments().size();
    const SnapshotInfo& info = snapshot->info();
    ASSERT_EQ(info.records, all_sensitive.size());
    EXPECT_EQ(info.blocks_cloned + info.blocks_shared,
              snapshot->fragments().size());

    // The oracle: extracted groups, scanned.
    const std::vector<LeafGroup> groups = ExtractLeafGroups(live.tree());
    for (const size_t k1 : kReleaseK1) {
      const PartitionSet want = LeafScan(groups, k1);
      testutil::ExpectSameRelease(snapshot->Release(k1), want);
      const std::vector<PartitionBox> boxes = snapshot->ReleaseBoxes(k1);
      ASSERT_EQ(boxes.size(), want.partitions.size());
      for (size_t p = 0; p < boxes.size(); ++p) {
        EXPECT_EQ(boxes[p].records, want.partitions[p].size());
        EXPECT_EQ(boxes[p].box, want.partitions[p].box);
      }
    }
    std::vector<uint64_t> cells;
    AccumulateCells(grid, all_points.data(), all_sensitive.size(), &cells);
    ASSERT_NE(snapshot->dp_cells(), nullptr);
    EXPECT_EQ(*snapshot->dp_cells(), cells) << "epoch " << epoch;

    // The same records into a fresh tree, published once.
    IncrementalAnonymizer scratch(2, options, &domain);
    for (size_t r = 0; r < all_sensitive.size(); ++r) {
      scratch.Insert({all_points.data() + 2 * r, 2}, r, all_sensitive[r]);
    }
    const auto fresh = testutil::PublishTree(scratch.tree(), domain, kBaseK,
                                             kDpHeight, epoch);
    EXPECT_EQ(fresh->info().blocks_shared, 0u);
    EXPECT_EQ(Bodies(snapshot, domain), Bodies(fresh, domain))
        << "epoch " << epoch;
  }
}

// A snapshot is immutable: after 10k more inserts, with publications in
// between that freeze, clone and split the blocks it shares, its blocks,
// its DP cells and every body rendered from it are byte-identical to what
// they were at publication.
TEST(PublicationTest, SnapshotStaysByteIdenticalAfterMoreInserts) {
  const Domain domain = testutil::SquareDomain(0, 100);
  const RTreeIndexOptions options = Options();
  IncrementalAnonymizer live(2, options, &domain);
  DpCellCounter dp(domain, kDpHeight);
  Stream stream(5);
  uint64_t rid = 0;
  const auto insert = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double> p = stream.Next();
      live.Insert(p, rid++, stream.Sensitive());
      dp.Add(p);
    }
  };
  insert(3000);
  const auto snapshot =
      BuildSnapshot(live.tree(), domain, options.base_k, dp, 1);
  const Frozen blocks = CopyFragments(*snapshot);
  const std::vector<uint64_t> cells = *snapshot->dp_cells();
  const std::vector<std::string> bodies = Bodies(snapshot, domain);

  uint64_t cloned = 0;
  for (uint64_t epoch = 2; epoch <= 11; ++epoch) {
    insert(1000);
    cloned += BuildSnapshot(live.tree(), domain, options.base_k, dp, epoch)
                  ->info()
                  .blocks_cloned;
  }
  ASSERT_EQ(live.size(), 13000u);
  ASSERT_GT(cloned, snapshot->fragments().size());  // the tree moved on

  const Frozen after = CopyFragments(*snapshot);
  EXPECT_EQ(after.rids, blocks.rids);
  EXPECT_EQ(after.sensitive, blocks.sensitive);
  EXPECT_EQ(std::memcmp(after.values.data(), blocks.values.data(),
                        blocks.values.size() * sizeof(double)),
            0);
  EXPECT_EQ(after.values.size(), blocks.values.size());
  EXPECT_EQ(*snapshot->dp_cells(), cells);
  EXPECT_EQ(Bodies(snapshot, domain), bodies);
}

// A publication after N inserts takes fresh only the blocks those inserts
// wrote: each insert clones at most its one leaf, and each split adds one
// more. Every other block is shared with the previous snapshot, and the
// counts reach ServiceStats.
TEST(PublicationTest, PublishClonesOnlyWhatChanged) {
  ServiceOptions options;
  options.anonymizer = Options();
  options.snapshot_every = 0;
  options.max_batch = 64;
  options.dp_height = kDpHeight;
  const Domain domain = testutil::SquareDomain(0, 100);
  AnonymizationService service(2, domain, options);
  Stream stream(3);
  const auto ingest = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(service.Ingest(stream.Next(), stream.Sensitive()).ok());
    }
  };
  ingest(4000);
  const auto first = service.PublishNow();
  ASSERT_NE(first, nullptr);
  const size_t leaves = first->fragments().size();
  EXPECT_EQ(first->info().blocks_cloned, leaves);
  EXPECT_EQ(first->info().blocks_shared, 0u);
  uint64_t cloned_total = leaves;
  uint64_t shared_total = 0;
  size_t previous_leaves = leaves;
  for (const size_t n : {size_t{1}, size_t{7}, size_t{50}, size_t{300}}) {
    ingest(n);
    const auto next = service.PublishNow();
    const SnapshotInfo& info = next->info();
    const size_t now_leaves = next->fragments().size();
    const size_t splits = now_leaves - previous_leaves;
    EXPECT_LE(info.blocks_cloned, n + splits) << n << " inserts";
    EXPECT_EQ(info.blocks_cloned + info.blocks_shared, now_leaves);
    EXPECT_GE(info.blocks_shared + n, previous_leaves);
    cloned_total += info.blocks_cloned;
    shared_total += info.blocks_shared;
    previous_leaves = now_leaves;
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.publish_blocks_cloned, cloned_total);
  EXPECT_EQ(stats.publish_blocks_shared, shared_total);
}

// Readers scan snapshot e, and whatever the writer last published, while
// the writer inserts, clones, splits and publishes. Snapshot e's releases
// never change; under TSan any write to a block a reader can see is a
// reported race.
TEST(PublicationTest, ReaderScansWhileWriterClonesAndSplits) {
  const Domain domain = testutil::SquareDomain(0, 100);
  const RTreeIndexOptions options = Options();
  IncrementalAnonymizer live(2, options, &domain);
  DpCellCounter dp(domain, kDpHeight);
  Stream stream(9);
  uint64_t rid = 0;
  const auto insert = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double> p = stream.Next();
      live.Insert(p, rid++, stream.Sensitive());
      dp.Add(p);
    }
  };
  insert(2000);
  const auto base = BuildSnapshot(live.tree(), domain, options.base_k, dp, 1);
  const std::vector<PartitionBox> want = base->ReleaseBoxes(12);

  std::mutex latest_mu;
  std::shared_ptr<const Snapshot> latest = base;
  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> scans{0};
  std::vector<JoinableThread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<PartitionBox> got = base->ReleaseBoxes(12);
        if (got.size() != want.size()) {
          mismatches.fetch_add(1);
        } else {
          for (size_t p = 0; p < got.size(); ++p) {
            if (got[p].records != want[p].records ||
                !(got[p].box == want[p].box)) {
              mismatches.fetch_add(1);
            }
          }
        }
        std::shared_ptr<const Snapshot> current;
        {
          std::lock_guard<std::mutex> lock(latest_mu);
          current = latest;
        }
        const PartitionSet release = current->Release(40);
        size_t records = 0;
        for (const Partition& p : release.partitions) records += p.size();
        if (records != current->info().records) mismatches.fetch_add(1);
        scans.fetch_add(1);
      }
    });
  }
  for (uint64_t epoch = 2; epoch <= 21; ++epoch) {
    insert(500);
    auto next = BuildSnapshot(live.tree(), domain, options.base_k, dp, epoch);
    std::lock_guard<std::mutex> lock(latest_mu);
    latest = std::move(next);
  }
  while (scans.load() < 4) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  readers.clear();  // joins
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace kanon
