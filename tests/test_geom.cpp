#include <gtest/gtest.h>

#include "geom/interval.h"
#include "geom/rect.h"
#include "geom/svg.h"
#include "util/contracts.h"

namespace {

using namespace cny::geom;

TEST(Interval, BasicPredicates) {
  const Interval iv{1.0, 3.0};
  EXPECT_DOUBLE_EQ(iv.length(), 2.0);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_FALSE(iv.contains(3.0));  // half-open
  EXPECT_TRUE(Interval({2.0, 2.0}).empty());
  EXPECT_DOUBLE_EQ(Interval({3.0, 2.0}).length(), 0.0);
}

TEST(Interval, OverlapAndIntersect) {
  const Interval a{0.0, 2.0}, b{1.0, 3.0}, c{2.0, 4.0};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));  // touching endpoints do not overlap
  const auto i = a.intersect(b);
  EXPECT_DOUBLE_EQ(i.lo, 1.0);
  EXPECT_DOUBLE_EQ(i.hi, 2.0);
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(Interval, HullAndShift) {
  const Interval a{0.0, 1.0}, b{5.0, 6.0};
  const auto h = a.hull(b);
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 6.0);
  const auto s = a.shifted(2.5);
  EXPECT_DOUBLE_EQ(s.lo, 2.5);
  EXPECT_DOUBLE_EQ(s.hi, 3.5);
}

TEST(IntervalSet, MergesOverlaps) {
  IntervalSet set;
  set.add({0.0, 2.0});
  set.add({5.0, 7.0});
  set.add({1.0, 6.0});  // bridges both
  EXPECT_EQ(set.n_components(), 1u);
  EXPECT_DOUBLE_EQ(set.measure(), 7.0);
}

TEST(IntervalSet, KeepsDisjointComponents) {
  IntervalSet set({{0.0, 1.0}, {2.0, 3.0}, {10.0, 11.5}});
  EXPECT_EQ(set.n_components(), 3u);
  EXPECT_DOUBLE_EQ(set.measure(), 3.5);
  EXPECT_TRUE(set.contains(0.5));
  EXPECT_FALSE(set.contains(1.5));
  EXPECT_TRUE(set.contains(10.0));
  EXPECT_FALSE(set.contains(11.5));
}

TEST(IntervalSet, IgnoresEmptyIntervals) {
  IntervalSet set;
  set.add({3.0, 3.0});
  set.add({5.0, 4.0});
  EXPECT_EQ(set.n_components(), 0u);
  EXPECT_DOUBLE_EQ(set.measure(), 0.0);
}

TEST(UnionMeasure, MatchesIntervalSet) {
  std::vector<Interval> ivs = {{0.0, 3.0}, {2.0, 5.0}, {7.0, 8.0}, {7.5, 7.9}};
  EXPECT_DOUBLE_EQ(union_measure(ivs), 6.0);
  EXPECT_DOUBLE_EQ(union_measure({}), 0.0);
}

TEST(Rect, SpansAndPredicates) {
  const Rect r{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r.right(), 4.0);
  EXPECT_DOUBLE_EQ(r.top(), 6.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_TRUE(r.contains({1.0, 2.0}));
  EXPECT_FALSE(r.contains({4.0, 3.0}));
  EXPECT_TRUE(r.x_span() == (Interval{1.0, 4.0}));
}

TEST(Rect, OverlapAndTranslate) {
  const Rect a{0.0, 0.0, 2.0, 2.0};
  EXPECT_TRUE(a.overlaps({1.0, 1.0, 2.0, 2.0}));
  EXPECT_FALSE(a.overlaps({2.0, 0.0, 1.0, 1.0}));  // edge contact
  const auto t = a.translated(1.0, -1.0);
  EXPECT_DOUBLE_EQ(t.x, 1.0);
  EXPECT_DOUBLE_EQ(t.y, -1.0);
}

TEST(Svg, ProducesValidDocument) {
  SvgWriter svg(Rect{0.0, 0.0, 100.0, 50.0}, 200.0);
  svg.rect({10.0, 10.0, 20.0, 10.0}, "#ff0000", "black", 1.0, 0.5);
  svg.line({0.0, 0.0}, {100.0, 50.0}, "blue", 0.5);
  svg.text({5.0, 45.0}, "label", 4.0);
  const std::string doc = svg.str();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("<rect"), std::string::npos);
  EXPECT_NE(doc.find("<line"), std::string::npos);
  EXPECT_NE(doc.find("label"), std::string::npos);
}

TEST(Svg, FlipsYAxis) {
  // A rect at the view's bottom edge must render near the SVG's bottom
  // (large pixel y).
  SvgWriter svg(Rect{0.0, 0.0, 100.0, 100.0}, 100.0);
  svg.rect({0.0, 0.0, 10.0, 10.0}, "red");
  const std::string doc = svg.str();
  EXPECT_NE(doc.find("y=\"90\""), std::string::npos);
}

TEST(Svg, SaveWritesFile) {
  SvgWriter svg(Rect{0.0, 0.0, 10.0, 10.0});
  const std::string path = ::testing::TempDir() + "/cny_test.svg";
  EXPECT_TRUE(svg.save(path));
  EXPECT_FALSE(svg.save("/nonexistent_dir_xyz/file.svg"));
}

}  // namespace
