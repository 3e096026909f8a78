#include "index/split.h"

#include <gtest/gtest.h>

#include <vector>

namespace kanon {
namespace {

std::vector<double> Grid2d(int nx, int ny) {
  std::vector<double> pts;
  for (int x = 0; x < nx; ++x) {
    for (int y = 0; y < ny; ++y) {
      pts.push_back(x);
      pts.push_back(y);
    }
  }
  return pts;
}

TEST(PointSplitTest, RefusesWhenTooFewPoints) {
  const auto pts = Grid2d(3, 1);  // 3 points
  SplitConfig config;
  EXPECT_FALSE(ChoosePointSplit(pts.data(), 3, 2, 2, config).has_value());
}

TEST(PointSplitTest, RefusesOnAllDuplicates) {
  std::vector<double> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back(1.0);
    pts.push_back(2.0);
  }
  SplitConfig config;
  EXPECT_FALSE(ChoosePointSplit(pts.data(), 20, 2, 5, config).has_value());
}

TEST(PointSplitTest, BalancedCutRespectsMinSide) {
  // 10 points on a line: any admissible cut leaves >= 4 on each side.
  std::vector<double> pts;
  for (int i = 0; i < 10; ++i) pts.push_back(i);
  SplitConfig config;
  const auto s = ChoosePointSplit(pts.data(), 10, 1, 4, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_GE(s->left_count, 4u);
  EXPECT_GE(s->right_count, 4u);
  EXPECT_EQ(s->left_count + s->right_count, 10u);
}

TEST(PointSplitTest, SkewedDuplicatesForceOffCenterCut) {
  // 12 copies of 0 and 4 distinct tail values: only cuts that keep
  // min_side=4 on the right are the ones at/before the tail.
  std::vector<double> pts(12, 0.0);
  for (int i = 1; i <= 4; ++i) pts.push_back(i);
  SplitConfig config;
  const auto s = ChoosePointSplit(pts.data(), pts.size(), 1, 4, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_GE(s->left_count, 4u);
  EXPECT_GE(s->right_count, 4u);
}

TEST(PointSplitTest, MinAreaPrefersTheClusteredAxis) {
  // Two tight clusters separated along x; y is uniform noise. Cutting x
  // yields two small boxes; cutting y yields two wide ones.
  std::vector<double> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(i < 5 ? 0.0 + i * 0.01 : 100.0 + i * 0.01);
    pts.push_back(i * 10.0);
  }
  SplitConfig config;
  config.policy = SplitPolicy::kMinArea;
  const auto s = ChoosePointSplit(pts.data(), 10, 2, 2, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->axis, 0u);
}

TEST(PointSplitTest, MedianWidestPicksWidestNormalizedAxis) {
  std::vector<double> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(i * 1.0);    // extent 9
    pts.push_back(i * 100.0);  // extent 900
  }
  SplitConfig config;
  config.policy = SplitPolicy::kMedianWidest;
  auto s = ChoosePointSplit(pts.data(), 10, 2, 2, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->axis, 1u);
  // Domain normalization can flip the choice.
  config.domain_extent = {10.0, 1e6};
  s = ChoosePointSplit(pts.data(), 10, 2, 2, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->axis, 0u);
}

TEST(PointSplitTest, BiasedAxesAreHonored) {
  const auto pts = Grid2d(6, 6);
  SplitConfig config;
  config.policy = SplitPolicy::kMedianWidest;
  config.biased_axes = {1};
  const auto s = ChoosePointSplit(pts.data(), 36, 2, 5, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->axis, 1u);
}

TEST(PointSplitTest, BiasedFallsBackWhenAxisConstant) {
  // Axis 1 constant: the bias cannot be honored, fall back to axis 0.
  std::vector<double> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back(i);
    pts.push_back(7.0);
  }
  SplitConfig config;
  config.biased_axes = {1};
  const auto s = ChoosePointSplit(pts.data(), 12, 2, 4, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->axis, 0u);
}

TEST(PointSplitTest, WeightsSteerAxisChoice) {
  const auto pts = Grid2d(8, 8);
  SplitConfig config;
  config.policy = SplitPolicy::kMedianWidest;
  config.weights = {1.0, 10.0};
  const auto s = ChoosePointSplit(pts.data(), 64, 2, 10, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->axis, 1u);
}

TEST(PointSplitTest, MidpointPolicyCutsNearSpatialMiddle) {
  // Midpoint of [0, 100] is 50 — the value 50 is the unique admissible cut
  // closest to it; a median cut would land inside the left cluster instead.
  std::vector<double> pts = {0, 1, 2, 3, 50, 96, 97, 98, 99, 100};
  SplitConfig config;
  config.policy = SplitPolicy::kMidpointWidest;
  const auto s = ChoosePointSplit(pts.data(), 10, 1, 2, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->value, 50.0);
  EXPECT_EQ(s->left_count, 4u);
}

TEST(PointSplitTest, RegionMidpointCutsAtRegionCenter) {
  // Data crowded in [0, 10] inside a region [0, 100): the quadtree-style
  // policy aims at the region midpoint 50 and snaps to the nearest
  // admissible data boundary (value 10), whereas the data-midpoint policy
  // would cut near 5.
  std::vector<double> pts = {0, 1, 2, 3, 4, 10};
  SplitConfig config;
  config.policy = SplitPolicy::kRegionMidpoint;
  Region region = Region::Whole(1);
  region.lo[0] = 0.0;
  region.hi[0] = 100.0;
  const auto s = ChoosePointSplit(pts.data(), 6, 1, 1, config, &region);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->value, 10.0);
}

TEST(PointSplitTest, RegionMidpointFallsBackWithoutRegion) {
  std::vector<double> pts = {0, 1, 2, 3, 4, 10};
  SplitConfig config;
  config.policy = SplitPolicy::kRegionMidpoint;
  // No region (or an unbounded one): behaves like the data-midpoint cut.
  const auto s = ChoosePointSplit(pts.data(), 6, 1, 1, config);
  ASSERT_TRUE(s.has_value());
  const auto reference = [&] {
    SplitConfig mid;
    mid.policy = SplitPolicy::kMidpointWidest;
    return ChoosePointSplit(pts.data(), 6, 1, 1, mid);
  }();
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(s->value, reference->value);
}

TEST(RegionSeparatorTest, FindsPlaneForBinaryCutChildren) {
  Region whole = Region::Whole(2);
  auto [a, b] = whole.Cut(0, 5.0);
  auto [a1, a2] = a.Cut(1, 2.0);
  std::vector<BoxView> regions = {a1.view(), a2.view(), b.view()};
  SplitConfig config;
  const auto s = ChooseRegionSeparator(regions, config);
  ASSERT_TRUE(s.has_value());
  // The only plane separating all three without slicing any is x=5.
  EXPECT_EQ(s->axis, 0u);
  EXPECT_EQ(s->value, 5.0);
  EXPECT_EQ(s->left_count, 2u);
  EXPECT_EQ(s->right_count, 1u);
}

TEST(RegionSeparatorTest, PrefersBalancedPlane) {
  // Four slabs from recursive cuts along x: planes at 2,4,6 all valid;
  // the balanced one (4) must win.
  Region whole = Region::Whole(1);
  auto [l, r] = whole.Cut(0, 4.0);
  auto [l1, l2] = l.Cut(0, 2.0);
  auto [r1, r2] = r.Cut(0, 6.0);
  std::vector<BoxView> regions = {l1.view(), l2.view(), r1.view(), r2.view()};
  SplitConfig config;
  const auto s = ChooseRegionSeparator(regions, config);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->value, 4.0);
  EXPECT_EQ(s->left_count, 2u);
}

TEST(RegionSeparatorTest, NulloptForSingleChild) {
  Region whole = Region::Whole(2);
  std::vector<BoxView> regions = {whole.view()};
  SplitConfig config;
  EXPECT_FALSE(ChooseRegionSeparator(regions, config).has_value());
}

}  // namespace
}  // namespace kanon
