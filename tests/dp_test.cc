#include "dp/dp_release.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/dp_hierarchy.h"
#include "dp/dp_ledger.h"
#include "dp/dp_rng.h"
#include "shard/sharded_service.h"

namespace kanon {
namespace {

Domain SquareDomain(double lo, double hi) {
  Domain d;
  d.lo = {lo, lo};
  d.hi = {hi, hi};
  return d;
}

/// The deterministic pseudo-grid stream the HTTP and shard tests use.
std::vector<double> GridPoint(size_t i) {
  return {static_cast<double>(i % 97), static_cast<double>((i * 7) % 89)};
}

// ---------------------------------------------------------------------------
// Key derivation and the PRF primitives

std::string HexOf(const std::array<uint8_t, 32>& bytes) {
  std::string hex;
  for (const uint8_t b : bytes) {
    const char digits[] = "0123456789abcdef";
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  return hex;
}

// FIPS 180-4 vectors: the key derivation is only as good as the hash under
// it, so pin the implementation, not just its self-consistency.
TEST(DpKeyTest, Sha256MatchesPublishedVectors) {
  EXPECT_EQ(HexOf(Sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b8"
            "55");
  EXPECT_EQ(HexOf(Sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015"
            "ad");
  // 56 bytes: exercises the two-block padding tail.
  EXPECT_EQ(HexOf(Sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06"
            "c1");
}

// The first ChaCha20 keystream block at an all-zero key/counter/nonce is a
// published vector (the layout-independent one: counter and nonce are both
// zero, so djb's 64/64 split and RFC 8439's 32/96 split agree).
TEST(DpKeyTest, ChaCha20BlockMatchesPublishedVector) {
  std::array<uint8_t, 32> key{};
  uint32_t block[16];
  ChaCha20Block(key, 0, 0, block);
  EXPECT_EQ(block[0], 0xade0b876u);
  EXPECT_EQ(block[1], 0x903df1a0u);
  EXPECT_EQ(block[2], 0xe56a5d40u);
  EXPECT_EQ(block[3], 0x28bd8653u);
}

TEST(DpKeyTest, DerivationIsDeterministicAndSecretSensitive) {
  const DpNoiseKey a = DeriveDpNoiseKey("deployment-secret");
  const DpNoiseKey b = DeriveDpNoiseKey("deployment-secret");
  EXPECT_TRUE(a == b);
  const DpNoiseKey c = DeriveDpNoiseKey("deployment-secret2");
  EXPECT_FALSE(a == c);
  // Two random keys must not collide (they come from OS entropy).
  EXPECT_FALSE(RandomDpNoiseKey() == RandomDpNoiseKey());
}

// ---------------------------------------------------------------------------
// Counter-based RNG

TEST(CounterRngTest, PureFunctionOfKeyStreamCounter) {
  const CounterRng a(DeriveDpNoiseKey("k"), 7);
  const CounterRng b(DeriveDpNoiseKey("k"), 7);
  for (uint64_t c = 0; c < 64; ++c) {
    EXPECT_EQ(a.Bits(c), b.Bits(c)) << "counter " << c;
    EXPECT_EQ(a.Uniform(c), b.Uniform(c));
  }
  const CounterRng other_key(DeriveDpNoiseKey("k2"), 7);
  const CounterRng other_stream(DeriveDpNoiseKey("k"), 8);
  size_t key_diffs = 0;
  size_t stream_diffs = 0;
  for (uint64_t c = 0; c < 64; ++c) {
    key_diffs += a.Bits(c) != other_key.Bits(c);
    stream_diffs += a.Bits(c) != other_stream.Bits(c);
  }
  EXPECT_GE(key_diffs, 60u) << "key barely changes the stream";
  EXPECT_GE(stream_diffs, 60u) << "stream barely changes the stream";
}

TEST(CounterRngTest, UniformIsInOpenUnitInterval) {
  const CounterRng rng(DeriveDpNoiseKey("uniform"), 456);
  double sum = 0.0;
  const size_t n = 20000;
  for (uint64_t c = 0; c < n; ++c) {
    const double u = rng.Uniform(c);
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 0.5, 0.01);
}

// Seeded statistical check of the two-sided geometric sampler: with
// P(X = k) proportional to alpha^|k|, the mean is 0 and the variance is
// 2 alpha / (1 - alpha)^2. At a fixed seed this is a deterministic
// assertion, not a flaky one.
TEST(GeometricSamplerTest, EmpiricalMomentsMatchTheory) {
  for (const double alpha : {0.2, 0.5, 0.8}) {
    const CounterRng rng(DeriveDpNoiseKey("moments"), 1);
    const size_t n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t x = SampleTwoSidedGeometric(rng, 2 * i, alpha);
      sum += static_cast<double>(x);
      sum_sq += static_cast<double>(x) * static_cast<double>(x);
    }
    const double mean = sum / static_cast<double>(n);
    const double var = sum_sq / static_cast<double>(n) - mean * mean;
    const double want_var = TwoSidedGeometricVariance(alpha);
    const double sd = std::sqrt(want_var / static_cast<double>(n));
    EXPECT_NEAR(mean, 0.0, 6.0 * sd) << "alpha=" << alpha;
    EXPECT_NEAR(var, want_var, 0.05 * want_var) << "alpha=" << alpha;
  }
}

TEST(GeometricSamplerTest, DegenerateAlphaIsNoiseless) {
  const CounterRng rng(DeriveDpNoiseKey("degenerate"), 1);
  EXPECT_EQ(SampleTwoSidedGeometric(rng, 0, 0.0), 0);
  EXPECT_EQ(SampleTwoSidedGeometric(rng, 0, -1.0), 0);
}

// ---------------------------------------------------------------------------
// Budget split and grid

TEST(SplitDpBudgetTest, SumsToEpsilonAndGrowsWithDepth) {
  const std::vector<double> eps = SplitDpBudget(2.0, 8);
  ASSERT_EQ(eps.size(), 9u);
  double total = 0.0;
  for (size_t i = 0; i < eps.size(); ++i) {
    EXPECT_GT(eps[i], 0.0);
    if (i > 0) {
      EXPECT_GT(eps[i], eps[i - 1]) << "level " << i;
    }
    total += eps[i];
  }
  EXPECT_NEAR(total, 2.0, 1e-12);
}

TEST(DpGridTest, CellMappingAndNodeInvariants) {
  const DpGrid grid(SquareDomain(0, 100), 6);
  EXPECT_EQ(grid.num_leaves(), 64u);
  EXPECT_EQ(grid.num_nodes(), 128u);
  // Every leaf node's range is one cell; every internal node's children
  // exactly split its range and sit inside its box.
  for (size_t v = 1; v < grid.num_nodes(); ++v) {
    size_t first = 0;
    size_t last = 0;
    grid.LeafRange(v, &first, &last);
    ASSERT_LT(first, last);
    if (DpGrid::NodeLevel(v) == grid.height()) {
      EXPECT_EQ(last - first, 1u);
      continue;
    }
    size_t lf = 0, ll = 0, rf = 0, rl = 0;
    grid.LeafRange(2 * v, &lf, &ll);
    grid.LeafRange(2 * v + 1, &rf, &rl);
    EXPECT_EQ(lf, first);
    EXPECT_EQ(ll, rf);
    EXPECT_EQ(rl, last);
    Mbr box, left, right;
    grid.NodeBox(v, &box);
    grid.NodeBox(2 * v, &left);
    grid.NodeBox(2 * v + 1, &right);
    EXPECT_TRUE(box.ContainsBox(left));
    EXPECT_TRUE(box.ContainsBox(right));
  }
  // Out-of-domain coordinates clamp into a valid cell.
  const std::vector<double> outside = {-5.0, 1e9};
  EXPECT_LT(grid.LeafCell(outside), grid.num_leaves());
}

// Pins the binning rule: depth d halves axis d % dim at its exact
// midpoint, [lo, mid) goes left and [mid, hi) right, and out-of-domain
// coordinates clamp into the boundary cell. Domain [0, 8] x [0, 4] at
// height 3 cuts x at 4, then y at 2, then x at 2 or 6.
TEST(DpGridTest, LeafCellPinsMidpointBoundaryAndOutOfDomainPoints) {
  Domain domain;
  domain.lo = {0.0, 0.0};
  domain.hi = {8.0, 4.0};
  const DpGrid grid(domain, 3);
  const auto cell = [&](double x, double y) {
    return grid.LeafCell(std::vector<double>{x, y});
  };
  EXPECT_EQ(cell(3.0, 1.0), 0b001u);  // interior: left, left, right
  EXPECT_EQ(cell(4.0, 2.0), 0b110u);  // on both midpoints: right, right
  EXPECT_EQ(cell(2.0, 0.0), 0b001u);  // on the depth-2 midpoint: right
  EXPECT_EQ(cell(0.0, 0.0), 0b000u);  // lower domain corner
  EXPECT_EQ(cell(8.0, 4.0), 0b111u);  // upper (closed) domain corner
  EXPECT_EQ(cell(-5.0, 10.0), 0b010u);  // out of domain: clamps
  EXPECT_EQ(cell(100.0, -1.0), 0b101u);
  EXPECT_EQ(cell(std::nextafter(4.0, 0.0), 2.0), 0b011u);

  // The node boxes along the path to cell 6, written into one reused box.
  Mbr box;
  grid.NodeBox(1, &box);
  EXPECT_EQ(box, Mbr::FromBounds({0.0, 0.0}, {8.0, 4.0}));
  grid.NodeBox(3, &box);
  EXPECT_EQ(box, Mbr::FromBounds({4.0, 0.0}, {8.0, 4.0}));
  grid.NodeBox(7, &box);
  EXPECT_EQ(box, Mbr::FromBounds({4.0, 2.0}, {8.0, 4.0}));
  grid.NodeBox(8 + 6, &box);
  EXPECT_EQ(box, Mbr::FromBounds({4.0, 2.0}, {6.0, 4.0}));
}

TEST(DpGridTest, AccumulateCountsEveryPointExactlyOnce) {
  const DpGrid grid(SquareDomain(0, 100), 8);
  std::vector<double> flat;
  const size_t n = 500;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> p = GridPoint(i);
    flat.insert(flat.end(), p.begin(), p.end());
  }
  std::vector<uint64_t> cells;
  AccumulateCells(grid, flat.data(), n, &cells);
  ASSERT_EQ(cells.size(), grid.num_leaves());
  uint64_t total = 0;
  for (const uint64_t c : cells) total += c;
  EXPECT_EQ(total, n);
}

// ---------------------------------------------------------------------------
// Noisy consistent hierarchy

std::vector<uint64_t> SomeCells(size_t height, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> cells(size_t{1} << height);
  for (uint64_t& c : cells) c = rng.Uniform(20);
  return cells;
}

TEST(NoisyHierarchyTest, ConsistencyHoldsAtEveryNode) {
  for (const double epsilon : {0.1, 1.0, 8.0}) {
    const size_t height = 6;
    const DpHierarchyCounts h = NoisyConsistentHierarchy(
        SomeCells(height, 99), height, epsilon, DeriveDpNoiseKey("c"));
    ASSERT_EQ(h.counts.size(), size_t{2} << height);
    for (size_t v = 1; v < (size_t{1} << height); ++v) {
      EXPECT_EQ(h.counts[v], h.counts[2 * v] + h.counts[2 * v + 1])
          << "node " << v << " epsilon " << epsilon;
    }
    for (size_t v = 1; v < h.counts.size(); ++v) {
      EXPECT_GE(h.counts[v], 0) << "node " << v;
    }
  }
}

TEST(NoisyHierarchyTest, HugeEpsilonRecoversExactCounts) {
  const size_t height = 5;
  const std::vector<uint64_t> cells = SomeCells(height, 3);
  const DpHierarchyCounts h =
      NoisyConsistentHierarchy(cells, height, 200.0, DeriveDpNoiseKey("h"));
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(h.counts[(size_t{1} << height) + i],
              static_cast<int64_t>(cells[i]))
        << "cell " << i;
  }
}

TEST(NoisyHierarchyTest, PureFunctionOfInputsAndKeySensitive) {
  const std::vector<uint64_t> cells = SomeCells(6, 1);
  const DpNoiseKey key = DeriveDpNoiseKey("one");
  const DpHierarchyCounts a = NoisyConsistentHierarchy(cells, 6, 0.5, key);
  const DpHierarchyCounts b = NoisyConsistentHierarchy(cells, 6, 0.5, key);
  EXPECT_EQ(a.counts, b.counts);
  const DpHierarchyCounts c =
      NoisyConsistentHierarchy(cells, 6, 0.5, DeriveDpNoiseKey("two"));
  EXPECT_NE(a.counts, c.counts) << "a different key must change the noise";
}

TEST(DpRangeCountTest, FullDisjointAndPartialBoxes) {
  const Domain domain = SquareDomain(0, 100);
  const size_t height = 6;
  const DpGrid grid(domain, height);
  std::vector<double> flat;
  for (size_t i = 0; i < 400; ++i) {
    const std::vector<double> p = GridPoint(i);
    flat.insert(flat.end(), p.begin(), p.end());
  }
  std::vector<uint64_t> cells;
  AccumulateCells(grid, flat.data(), 400, &cells);
  const DpHierarchyCounts h = NoisyConsistentHierarchy(
      cells, height, 100.0, DeriveDpNoiseKey("range"));

  const Mbr everything = Mbr::FromBounds({0, 0}, {100, 100});
  EXPECT_NEAR(DpRangeCount(h, grid, everything),
              static_cast<double>(h.counts[1]), 1e-9);
  const Mbr nothing = Mbr::FromBounds({200, 200}, {300, 300});
  EXPECT_EQ(DpRangeCount(h, grid, nothing), 0.0);
  // A strict sub-box answers in (0, total); at epsilon 100 the hierarchy
  // is nearly exact, so the estimate must be close to the true count.
  const Mbr half = Mbr::FromBounds({0, 0}, {50, 100});
  uint64_t truth = 0;
  for (size_t i = 0; i < 400; ++i) {
    if (GridPoint(i)[0] < 50.0) ++truth;
  }
  // Cell-boundary uniformity smearing bounds the error by a few cells'
  // worth of mass, not a proportion of the total.
  EXPECT_NEAR(DpRangeCount(h, grid, half), static_cast<double>(truth), 25.0);
}

TEST(DpReleaseTest, BodyIsDeterministicAndKeySensitive) {
  const Domain domain = SquareDomain(0, 100);
  const std::vector<uint64_t> cells = SomeCells(6, 12);
  const DpNoiseKey key = DeriveDpNoiseKey("release");
  const auto a = BuildDpRelease(cells, domain, 6, 1.5, key);
  const auto b = BuildDpRelease(cells, domain, 6, 1.5, key);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->body, b->body);
  const auto c =
      BuildDpRelease(cells, domain, 6, 1.5, DeriveDpNoiseKey("other"));
  EXPECT_NE(a->body, c->body);
  EXPECT_NE(a->body.find("\"semantics\":\"dp\""), std::string::npos);
  EXPECT_NE(a->body.find("\"epsilon\":1.5"), std::string::npos);
  EXPECT_EQ(a->body.find("\"epoch\""), std::string::npos)
      << "the epoch is transport metadata, not part of the DP body";
  EXPECT_EQ(a->body.find("seed"), std::string::npos)
      << "the DP body must carry no noise-source material";
  EXPECT_EQ(a->body.find("key"), std::string::npos)
      << "the DP body must carry no noise-source material";
}

TEST(DpUtilityTest, ReportsFiniteErrorsOverTheFixedWorkload) {
  const Domain domain = SquareDomain(0, 100);
  const size_t height = 6;
  const DpGrid grid(domain, height);
  std::vector<double> flat;
  for (size_t i = 0; i < 300; ++i) {
    const std::vector<double> p = GridPoint(i);
    flat.insert(flat.end(), p.begin(), p.end());
  }
  std::vector<uint64_t> cells;
  AccumulateCells(grid, flat.data(), 300, &cells);
  const DpHierarchyCounts dp =
      NoisyConsistentHierarchy(cells, height, 1.0, DeriveDpNoiseKey("u"));
  // One giant k-anonymous box: maximal smearing, so its error should be
  // clearly worse than the DP hierarchy's at a healthy epsilon.
  PartitionSet kanon;
  Partition everything;
  everything.rids.resize(300);
  everything.box = Mbr::FromBounds({0, 0}, {100, 100});
  kanon.partitions.push_back(everything);
  const DpUtilityReport report =
      EvaluateReleaseUtility(cells, grid, dp, kanon);
  EXPECT_GT(report.num_queries, 0u);
  EXPECT_TRUE(std::isfinite(report.kanon_avg_rel_error));
  EXPECT_TRUE(std::isfinite(report.dp_avg_rel_error));
  EXPECT_GE(report.kanon_avg_rel_error, 0.0);
  EXPECT_GE(report.dp_avg_rel_error, 0.0);
}

// ---------------------------------------------------------------------------
// Budget ledger

std::shared_ptr<const DpRelease> TinyRelease(double epsilon) {
  return BuildDpRelease(SomeCells(4, 1), SquareDomain(0, 10), 4, epsilon,
                        DeriveDpNoiseKey("ledger"));
}

TEST(DpBudgetLedgerTest, ChargesOncePerDistinctReleaseAndRejectsOverBudget) {
  DpBudgetLedger ledger(1.0);
  auto first = ledger.Acquire(1, 100, 0.6, [] { return TinyRelease(0.6); });
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(ledger.releases_built(), 1u);
  EXPECT_NEAR(ledger.Spent(1, 100), 0.6, 1e-12);

  // Re-serving the memoized release is post-processing: free, identical.
  auto again = ledger.Acquire(1, 100, 0.6, [] { return TinyRelease(0.6); });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first->get());
  EXPECT_EQ(ledger.cache_hits(), 1u);
  EXPECT_NEAR(ledger.Spent(1, 100), 0.6, 1e-12);

  // A distinct epsilon is a fresh draw: 0.6 + 0.6 > 1.0 is refused with
  // the typed budget error before any noise is drawn.
  auto over =
      ledger.Acquire(1, 100, 0.6000001, [] { return TinyRelease(0.6000001); });
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ledger.rejected(), 1u);
  EXPECT_NEAR(ledger.Spent(1, 100), 0.6, 1e-12) << "a reject burns nothing";

  // A smaller epsilon still fits under the cap.
  auto fits = ledger.Acquire(1, 100, 0.25, [] { return TinyRelease(0.25); });
  ASSERT_TRUE(fits.ok());
  EXPECT_NEAR(ledger.Spent(1, 100), 0.85, 1e-12);

  // A new release point starts from a fresh per-point budget; the lifetime
  // gauge keeps accumulating across points.
  auto next_epoch =
      ledger.Acquire(2, 220, 0.6, [] { return TinyRelease(0.6); });
  ASSERT_TRUE(next_epoch.ok());
  EXPECT_NEAR(ledger.Spent(2, 220), 0.6, 1e-12);
  EXPECT_NEAR(ledger.LifetimeSpent(), 1.45, 1e-12);
}

TEST(DpBudgetLedgerTest, RejectsMalformedEpsilonAndHonorsUnlimited) {
  DpBudgetLedger ledger(0.0);  // <= 0 = unlimited
  for (const double bad : {0.0, -1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    auto r = ledger.Acquire(1, 10, bad, [] { return TinyRelease(1); });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  for (int i = 1; i <= 32; ++i) {
    const double epsilon = 10.0 + i;
    auto r = ledger.Acquire(1, 10, epsilon,
                            [epsilon] { return TinyRelease(epsilon); });
    ASSERT_TRUE(r.ok()) << "unlimited budget refused draw " << i;
  }
}

// The granularity floor: epsilon = 1e-300 would be charged ~nothing per
// build, so without a floor the memoized-release map is a memory DoS.
TEST(DpBudgetLedgerTest, RejectsEpsilonBelowGranularityFloor) {
  DpLedgerOptions options;
  options.budget = 0.0;  // even with no budget to protect
  DpBudgetLedger ledger(options);
  auto r = ledger.Acquire(1, 10, 1e-300, [] { return TinyRelease(1e-300); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto ok = ledger.Acquire(1, 10, options.min_epsilon,
                           [&] { return TinyRelease(options.min_epsilon); });
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// LRU cap on memoized releases: old hierarchies are evicted, but their
// charge record survives, so re-requesting an evicted epsilon rebuilds the
// identical bytes for free instead of double-charging.
TEST(DpBudgetLedgerTest, EvictsLruReleasesWithoutDoubleCharging) {
  DpLedgerOptions options;
  options.budget = 100.0;
  options.max_releases_per_point = 2;
  DpBudgetLedger ledger(options);
  std::string first_body;
  for (const double epsilon : {1.0, 2.0, 3.0}) {
    auto r = ledger.Acquire(7, 50, epsilon,
                            [epsilon] { return TinyRelease(epsilon); });
    ASSERT_TRUE(r.ok()) << r.status();
    if (epsilon == 1.0) first_body = (*r)->body;
  }
  EXPECT_EQ(ledger.evicted(), 1u);  // epsilon=1.0 fell out of the cache
  EXPECT_NEAR(ledger.Spent(7, 50), 6.0, 1e-12);

  // Re-requesting the evicted epsilon: a rebuild (not a cache hit), byte
  // identical, and the spend does not move.
  const uint64_t built_before = ledger.releases_built();
  auto again = ledger.Acquire(7, 50, 1.0, [] { return TinyRelease(1.0); });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->body, first_body);
  EXPECT_EQ(ledger.releases_built(), built_before + 1);
  EXPECT_NEAR(ledger.Spent(7, 50), 6.0, 1e-12)
      << "an evicted rebuild must not re-charge";
}

// The cross-epoch cap: per-point budgets refresh every publication, but
// the lifetime budget bounds the total composed loss a long-lived record
// can suffer across release points.
TEST(DpBudgetLedgerTest, LifetimeBudgetCapsSpendAcrossReleasePoints) {
  DpLedgerOptions options;
  options.budget = 1.0;
  options.lifetime_budget = 1.5;
  DpBudgetLedger ledger(options);
  ASSERT_TRUE(ledger.Acquire(1, 10, 0.9, [] { return TinyRelease(0.9); }).ok());
  // A fresh release point has per-point room, but 0.9 + 0.9 > 1.5 overall.
  auto over = ledger.Acquire(2, 20, 0.9, [] { return TinyRelease(0.9); });
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ledger.rejected(), 1u);
  // A smaller draw still fits under both caps.
  EXPECT_TRUE(
      ledger.Acquire(2, 20, 0.5, [] { return TinyRelease(0.5); }).ok());
  EXPECT_NEAR(ledger.LifetimeSpent(), 1.4, 1e-12);
}

// ---------------------------------------------------------------------------
// The cross-shard byte-identity acceptance criterion: the same record
// multiset produces the same DP release body at 1, 2 and 4 shards, because
// the data-independent grid makes per-shard cell vectors summable.

std::string DpBodyAtShards(size_t shards, size_t n) {
  ShardedServiceOptions options;
  options.service.anonymizer.base_k = 4;
  options.service.snapshot_every = 0;
  options.service.dp_height = 8;
  options.sharding.num_shards = shards;
  auto service_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), options);
  EXPECT_TRUE(service_or.ok()) << service_or.status();
  ShardedAnonymizationService& service = **service_or;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        service.Ingest(GridPoint(i), static_cast<int32_t>(i % 5)).ok());
  }
  const auto stitched = service.PublishNow();
  EXPECT_NE(stitched, nullptr);
  if (stitched == nullptr) return "";
  size_t height = 0;
  auto cells_or = stitched->SummedDpCells(&height);
  EXPECT_TRUE(cells_or.ok()) << cells_or.status();
  if (!cells_or.ok()) return "";
  const auto release = BuildDpRelease(**cells_or, stitched->domain(), height,
                                      0.8, DeriveDpNoiseKey("shards"));
  service.Stop();
  return release->body;
}

TEST(DpShardingTest, ReleaseBodyIsByteIdenticalAcrossShardCounts) {
  const std::string one = DpBodyAtShards(1, 300);
  const std::string two = DpBodyAtShards(2, 300);
  const std::string four = DpBodyAtShards(4, 300);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(DpShardingTest, SummedCellsFailWhenDpDisabled) {
  ShardedServiceOptions options;
  options.service.anonymizer.base_k = 4;
  options.service.snapshot_every = 0;
  options.service.dp_height = 0;  // DP cell accounting off
  auto service_or = ShardedAnonymizationService::Create(
      2, SquareDomain(0, 100), options);
  ASSERT_TRUE(service_or.ok());
  ShardedAnonymizationService& service = **service_or;
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(service.Ingest(GridPoint(i), 0).ok());
  }
  const auto stitched = service.PublishNow();
  ASSERT_NE(stitched, nullptr);
  size_t height = 0;
  auto cells_or = stitched->SummedDpCells(&height);
  ASSERT_FALSE(cells_or.ok());
  EXPECT_EQ(cells_or.status().code(), StatusCode::kFailedPrecondition);
  service.Stop();
}

}  // namespace
}  // namespace kanon
