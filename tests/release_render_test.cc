// Release rendering: the shortest round-trip number text every body uses,
// the per-snapshot memo of rendered bodies, and the one stitched view per
// publication that lets the memo hit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/number_text.h"
#include "data/landsend_generator.h"
#include "net/anon_http.h"
#include "shard/sharded_service.h"

namespace kanon {
namespace {

using net::HttpRequest;
using net::RenderRelease;

constexpr size_t kBaseK = 10;

/// The serving domain of the Lands End stream (the bounds the benchmark
/// serves under) and the generated records that fill it.
Domain LandsEndServingDomain() {
  Domain domain;
  domain.lo = {501, 0, 0, 0, 5, 1, 2, 0};
  domain.hi = {99950, 3651, 1, 599, 500, 10, 350, 4};
  return domain;
}

Dataset LandsEndRecords(size_t n) { return LandsEndGenerator(1).Generate(n); }

/// Parses `text` as a double and requires it to consume every byte.
double ParseWhole(std::string_view text) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  EXPECT_TRUE(ec == std::errc() && ptr == text.data() + text.size())
      << "'" << text << "' does not parse as a whole double";
  return v;
}

void ExpectRoundTrip(double v) {
  std::string text;
  AppendDouble(&text, v);
  const double back = ParseWhole(text);
  EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v))
      << "'" << text << "' parses back to " << back;
}

TEST(NumberTextTest, ShortestTextParsesBackBitExactly) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  for (const double v : {0.0, -0.0, kMax, -kMax, kMinNormal, -kMinNormal,
                         kDenormMin, -kDenormMin, kMinNormal - kDenormMin,
                         0.1, 1.0 / 3.0, 2.0 / 3.0, 1e21, 1e-7, 123456.789}) {
    ExpectRoundTrip(v);
  }
  for (int64_t i = -1000; i <= 1000; ++i) {
    ExpectRoundTrip(static_cast<double>(i));
  }
  for (int e = 0; e <= 53; ++e) {
    const double p = std::ldexp(1.0, e);
    ExpectRoundTrip(p);
    ExpectRoundTrip(p - 1);
    ExpectRoundTrip(-p);
  }

  std::mt19937_64 rng(20071);
  for (int i = 0; i < 200000; ++i) {
    // Random bit patterns cover every exponent; mantissa-only patterns are
    // subnormals.
    const double any = std::bit_cast<double>(rng());
    if (std::isfinite(any)) ExpectRoundTrip(any);
    ExpectRoundTrip(std::bit_cast<double>(rng() & ((uint64_t{1} << 52) - 1)));
  }

  const Domain serving = LandsEndServingDomain();
  const Dataset records = LandsEndRecords(2000);
  const Domain data = records.ComputeDomain();
  for (const Domain* d : {&serving, &data}) {
    for (size_t a = 0; a < d->dim(); ++a) {
      ExpectRoundTrip(d->lo[a]);
      ExpectRoundTrip(d->hi[a]);
    }
  }
  for (size_t r = 0; r < records.num_records(); ++r) {
    for (const double v : records.row(r)) ExpectRoundTrip(v);
  }
}

TEST(NumberTextTest, IntegersPrintAsDigits) {
  std::string text;
  AppendUint(&text, 0);
  text += ',';
  AppendUint(&text, std::numeric_limits<uint64_t>::max());
  text += ',';
  AppendDouble(&text, 42.0);
  text += ',';
  AppendDouble(&text, -0.0);
  EXPECT_EQ(text, "0,18446744073709551615,42,-0");
}

HttpRequest ReleaseRequest(const std::string& query) {
  HttpRequest request;
  request.method = "GET";
  request.path = "/release/query";
  request.query = query;
  request.target = request.path + "?" + query;
  return request;
}

std::string Query(size_t k1, bool summary) {
  return "k1=" + std::to_string(k1) + (summary ? "&summary=1" : "");
}

/// The numbers of every `"key":[...]` array of `body`, in order.
std::vector<double> NumberArrays(std::string_view body, std::string_view key) {
  std::vector<double> out;
  const std::string needle = "\"" + std::string(key) + "\":[";
  for (size_t at = body.find(needle); at != std::string_view::npos;
       at = body.find(needle, at + 1)) {
    const size_t begin = at + needle.size();
    const size_t end = body.find(']', begin);
    std::string_view list = body.substr(begin, end - begin);
    while (!list.empty()) {
      const size_t comma = std::min(list.find(','), list.size());
      out.push_back(ParseWhole(list.substr(0, comma)));
      list.remove_prefix(std::min(comma + 1, list.size()));
    }
  }
  return out;
}

/// A sharded service over the first `n` Lands End records, published once.
class ReleaseMemoTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    ShardedServiceOptions options;
    options.service.anonymizer.base_k = kBaseK;
    options.service.snapshot_every = 0;  // publish on demand
    options.sharding.num_shards = GetParam();
    auto service_or = ShardedAnonymizationService::Create(
        records_.dim(), LandsEndServingDomain(), options);
    ASSERT_TRUE(service_or.ok()) << service_or.status();
    service_ = std::move(service_or).value();
    Ingest(0, 3000);
    ASSERT_NE(service_->PublishNow(), nullptr);
  }

  void TearDown() override {
    if (service_ != nullptr) service_->Stop();
  }

  void Ingest(size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      ASSERT_TRUE(
          service_->Ingest(records_.row(r), records_.sensitive(r)).ok());
    }
  }

  /// The body of `query` rendered with no memo: a new view over the same
  /// shard snapshots renders it from scratch.
  static std::string Uncached(const StitchedSnapshot& view,
                              const std::string& query) {
    const StitchedSnapshot fresh(view.parts(), view.domain());
    const auto resp = RenderRelease(&fresh, ReleaseRequest(query));
    EXPECT_EQ(resp.status, 200) << resp.body;
    return resp.body;
  }

  const Dataset records_ = LandsEndRecords(4000);
  std::unique_ptr<ShardedAnonymizationService> service_;
};

TEST_P(ReleaseMemoTest, RenderedBoundsEqualTheExactReleaseBoxes) {
  const auto view = service_->CurrentStitched();
  const auto resp =
      RenderRelease(view.get(), ReleaseRequest(Query(10, false)));
  ASSERT_EQ(resp.status, 200);
  const PartitionSet release = view->Release(10);
  std::vector<double> lo, hi;
  for (const Partition& p : release.partitions) {
    lo.insert(lo.end(), p.box.lo().begin(), p.box.lo().end());
    hi.insert(hi.end(), p.box.hi().begin(), p.box.hi().end());
  }
  ASSERT_FALSE(lo.empty());
  const std::vector<double> body_lo = NumberArrays(resp.body, "lo");
  const std::vector<double> body_hi = NumberArrays(resp.body, "hi");
  ASSERT_EQ(body_lo.size(), lo.size());
  ASSERT_EQ(body_hi.size(), hi.size());
  for (size_t i = 0; i < lo.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(body_lo[i]),
              std::bit_cast<uint64_t>(lo[i]));
    EXPECT_EQ(std::bit_cast<uint64_t>(body_hi[i]),
              std::bit_cast<uint64_t>(hi[i]));
  }
}

TEST_P(ReleaseMemoTest, MemoizedBodiesEqualAnUncachedRender) {
  const auto view = service_->CurrentStitched();
  size_t keys = 0;
  for (const size_t k1 : {size_t{1}, kBaseK, size_t{17}, size_t{40},
                          size_t{160}, size_t{640}, size_t{5000}}) {
    for (const bool summary : {true, false}) {
      const std::string query = Query(k1, summary);
      const auto first = RenderRelease(view.get(), ReleaseRequest(query));
      const auto again = RenderRelease(view.get(), ReleaseRequest(query));
      ASSERT_EQ(first.status, 200) << first.body;
      EXPECT_EQ(first.body, again.body) << query;
      EXPECT_EQ(first.body, Uncached(*view, query)) << query;
      // k1 below base_k clamps to base_k: k1=1 makes base_k's entry, and
      // k1=base_k then finds it.
      if (k1 != kBaseK) ++keys;
      EXPECT_EQ(view->rendered_bodies(), keys) << query;
    }
  }
}

TEST_P(ReleaseMemoTest, ConcurrentFirstRendersAgree) {
  Ingest(3000, 3500);
  const auto view = service_->PublishNow();
  ASSERT_EQ(view->rendered_bodies(), 0u);
  const std::vector<std::string> queries = {
      Query(10, true), Query(10, false), Query(160, true), Query(160, false)};
  std::vector<std::string> want;
  for (const std::string& q : queries) want.push_back(Uncached(*view, q));

  constexpr size_t kThreads = 8;
  std::vector<std::vector<std::string>> got(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t i = 0; i < queries.size(); ++i) {
        // Each thread walks the targets from a different start, so first
        // renders of every key race.
        const std::string& q = queries[(i + t) % queries.size()];
        got[t].push_back(RenderRelease(view.get(), ReleaseRequest(q)).body);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[t][i], want[(i + t) % queries.size()])
          << "thread " << t << " " << queries[(i + t) % queries.size()];
    }
  }
  EXPECT_EQ(view->rendered_bodies(), queries.size());
}

TEST_P(ReleaseMemoTest, DistinctK1ValuesStayUnderTheCap) {
  const auto view = service_->CurrentStitched();
  for (size_t k1 = kBaseK; k1 < kBaseK + 1000; ++k1) {
    const std::string query = Query(k1, /*summary=*/true);
    const auto resp = RenderRelease(view.get(), ReleaseRequest(query));
    ASSERT_EQ(resp.status, 200);
    if (k1 % 97 == 0) {
      EXPECT_EQ(resp.body, Uncached(*view, query)) << query;
    }
  }
  EXPECT_EQ(view->rendered_bodies(), StitchedSnapshot::kMaxRenderedBodies);
}

TEST_P(ReleaseMemoTest, RidsBodiesAreNeverMemoized) {
  const auto view = service_->CurrentStitched();
  for (const size_t k1 : {kBaseK, size_t{40}}) {
    for (const bool summary : {true, false}) {
      const std::string query = Query(k1, summary) + "&rids=1";
      const auto resp = RenderRelease(view.get(), ReleaseRequest(query));
      ASSERT_EQ(resp.status, 200);
      EXPECT_EQ(resp.body, Uncached(*view, query));
      if (!summary) {
        EXPECT_NE(resp.body.find("\"partitions\":" +
                                 net::PartitionsJson(view->Release(k1), true)),
                  std::string::npos);
      }
    }
  }
  EXPECT_EQ(view->rendered_bodies(), 0u);
}

TEST_P(ReleaseMemoTest, OneViewPerPublication) {
  std::shared_ptr<const StitchedSnapshot> view = service_->CurrentStitched();
  EXPECT_EQ(service_->CurrentStitched().get(), view.get());
  ASSERT_TRUE(service_->GetRelease(kBaseK).ok());
  EXPECT_EQ(service_->CurrentStitched().get(), view.get());
  EXPECT_EQ(RenderRelease(view.get(), ReleaseRequest(Query(10, true))).status,
            200);

  const std::weak_ptr<const StitchedSnapshot> previous = view;
  const uint64_t epoch = view->info().epoch;
  view.reset();
  Ingest(3000, 3200);
  const auto next = service_->PublishNow();
  EXPECT_TRUE(previous.expired())
      << "the replaced view (and its memo) outlived its publication";
  EXPECT_GT(next->info().epoch, epoch);
  EXPECT_EQ(next->info().records, 3200u);
  EXPECT_EQ(next->rendered_bodies(), 0u);
  EXPECT_EQ(service_->CurrentStitched().get(), next.get());
}

INSTANTIATE_TEST_SUITE_P(Shards, ReleaseMemoTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace kanon
