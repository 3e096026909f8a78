#include "index/mbr.h"

#include <gtest/gtest.h>

namespace kanon {
namespace {

TEST(MbrTest, EmptyBoxBehaviour) {
  Mbr m(2);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Volume(), 0.0);
  const double p[] = {1.0, 1.0};
  EXPECT_FALSE(m.ContainsPoint({p, 2}));
}

TEST(MbrTest, ExpandFromPoints) {
  Mbr m(2);
  const double a[] = {1.0, 5.0};
  const double b[] = {3.0, 2.0};
  m.ExpandToInclude({a, 2});
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.Volume(), 0.0);  // degenerate
  m.ExpandToInclude({b, 2});
  EXPECT_EQ(m.lo(0), 1.0);
  EXPECT_EQ(m.hi(0), 3.0);
  EXPECT_EQ(m.lo(1), 2.0);
  EXPECT_EQ(m.hi(1), 5.0);
  EXPECT_EQ(m.Volume(), 6.0);
}

TEST(MbrTest, ContainsAndIntersects) {
  Mbr a = Mbr::FromBounds({0.0, 0.0}, {10.0, 10.0});
  Mbr b = Mbr::FromBounds({2.0, 2.0}, {3.0, 3.0});
  Mbr c = Mbr::FromBounds({10.0, 10.0}, {12.0, 12.0});
  Mbr d = Mbr::FromBounds({11.0, 0.0}, {12.0, 1.0});
  EXPECT_TRUE(a.ContainsBox(b));
  EXPECT_FALSE(b.ContainsBox(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(a.Intersects(c));  // closed boxes share the corner (10,10)
  EXPECT_FALSE(a.Intersects(d));
  const double edge[] = {10.0, 5.0};
  EXPECT_TRUE(a.ContainsPoint({edge, 2}));
}

TEST(MbrTest, UnionCoversBoth) {
  Mbr a = Mbr::FromBounds({0.0, 0.0}, {1.0, 1.0});
  Mbr b = Mbr::FromBounds({5.0, -2.0}, {6.0, 0.5});
  Mbr u = Mbr::Union(a, b);
  EXPECT_TRUE(u.ContainsBox(a));
  EXPECT_TRUE(u.ContainsBox(b));
  EXPECT_EQ(u.lo(1), -2.0);
  EXPECT_EQ(u.hi(0), 6.0);
  // Union with an empty box is identity.
  EXPECT_EQ(Mbr::Union(Mbr(2), a), a);
  EXPECT_EQ(Mbr::Union(a, Mbr(2)), a);
}

TEST(MbrTest, IntersectionFraction) {
  Mbr a = Mbr::FromBounds({0.0, 0.0}, {10.0, 10.0});
  Mbr full = Mbr::FromBounds({-5.0, -5.0}, {15.0, 15.0});
  Mbr half = Mbr::FromBounds({5.0, 0.0}, {15.0, 10.0});
  Mbr none = Mbr::FromBounds({20.0, 20.0}, {30.0, 30.0});
  EXPECT_DOUBLE_EQ(a.IntersectionFraction(full), 1.0);
  EXPECT_DOUBLE_EQ(a.IntersectionFraction(half), 0.5);
  EXPECT_DOUBLE_EQ(a.IntersectionFraction(none), 0.0);
  // Degenerate extents count fully when the slice intersects.
  Mbr flat = Mbr::FromBounds({0.0, 5.0}, {10.0, 5.0});
  EXPECT_DOUBLE_EQ(flat.IntersectionFraction(half), 0.5);
}

TEST(MbrTest, ToStringRendersBounds) {
  Mbr a = Mbr::FromBounds({1.0}, {2.0});
  EXPECT_EQ(a.ToString(), "[1, 2]");
  EXPECT_EQ(Mbr(1).ToString(), "[empty]");
}

TEST(RegionTest, WholeSpaceContainsEverything) {
  Region r = Region::Whole(3);
  const double p[] = {1e300, -1e300, 0.0};
  EXPECT_TRUE(r.ContainsPoint({p, 3}));
}

TEST(RegionTest, CutProducesHalfOpenTiling) {
  Region r = Region::Whole(1);
  auto [left, right] = r.Cut(0, 5.0);
  const double below[] = {4.999};
  const double at[] = {5.0};
  const double above[] = {5.001};
  EXPECT_TRUE(left.ContainsPoint({below, 1}));
  EXPECT_FALSE(left.ContainsPoint({at, 1}));
  EXPECT_TRUE(right.ContainsPoint({at, 1}));
  EXPECT_TRUE(right.ContainsPoint({above, 1}));
  EXPECT_FALSE(right.ContainsPoint({below, 1}));
}

TEST(RegionTest, NestedCutsTile) {
  Region r = Region::Whole(2);
  auto [left, right] = r.Cut(0, 0.0);
  auto [ll, lr] = left.Cut(1, 10.0);
  // Every point belongs to exactly one of {ll, lr, right}.
  const double pts[][2] = {{-1, 5}, {-1, 15}, {1, 5}, {0, 0}};
  for (const auto& p : pts) {
    int owners = 0;
    owners += ll.ContainsPoint({p, 2}) ? 1 : 0;
    owners += lr.ContainsPoint({p, 2}) ? 1 : 0;
    owners += right.ContainsPoint({p, 2}) ? 1 : 0;
    EXPECT_EQ(owners, 1);
  }
}

}  // namespace
}  // namespace kanon
