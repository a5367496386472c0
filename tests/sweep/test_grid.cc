/**
 * @file
 * Grid enumeration semantics: declaration-order lexicographic
 * enumeration (last axis fastest, exactly like the nested for-loops it
 * replaces), filter pruning with dense surviving indices, name-based
 * axis lookup, and that only a Grid that outlives its points can
 * enumerate them.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "sweep/grid.hh"

namespace {

using namespace eq;

/** Whether G can enumerate its points (the detection idiom). */
template <typename G, typename = void>
struct CanEnumerate : std::false_type {};
template <typename G>
struct CanEnumerate<G, std::void_t<decltype(std::declval<G>().points())>>
    : std::true_type {};

// Points borrow their Grid, so a temporary Grid must not hand any out.
static_assert(CanEnumerate<const sweep::Grid &>::value,
              "an lvalue Grid enumerates its points");
static_assert(!CanEnumerate<sweep::Grid>::value,
              "a temporary Grid must not enumerate: its points would "
              "outlive it");

TEST(GridTest, EnumeratesLikeNestedLoops)
{
    sweep::Grid g;
    g.axis("a", {1, 2}).axis("b", {10, 20, 30});

    std::vector<std::pair<int64_t, int64_t>> expected;
    for (int64_t a : {1, 2})
        for (int64_t b : {10, 20, 30})
            expected.emplace_back(a, b);

    auto pts = g.points();
    ASSERT_EQ(pts.size(), expected.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(pts[i].index(), i);
        EXPECT_EQ(pts[i].at("a"), expected[i].first);
        EXPECT_EQ(pts[i].at("b"), expected[i].second);
        EXPECT_EQ(pts[i].at(size_t{0}), expected[i].first);
        EXPECT_EQ(pts[i].at(size_t{1}), expected[i].second);
    }
}

TEST(GridTest, SingleAxis)
{
    sweep::Grid g;
    g.axis("x", {7, 8, 9});
    auto pts = g.points();
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_EQ(pts[2].at("x"), 9);
}

TEST(GridTest, FiltersPruneAndReindexDensely)
{
    sweep::Grid g;
    g.axis("hw", {2, 4, 8}).axis("f", {1, 2, 4}).filter(
        [](const sweep::Point &p) { return p.at("hw") >= p.at("f"); });

    auto pts = g.points();
    // 9 combinations, none dropped except where hw < f: (2,4).
    ASSERT_EQ(pts.size(), 8u);
    for (size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(pts[i].index(), i) << "indices must stay dense";
        EXPECT_GE(pts[i].at("hw"), pts[i].at("f"));
    }
}

TEST(GridTest, MultipleFiltersConjoin)
{
    sweep::Grid g;
    g.axis("x", {1, 2, 3, 4, 5, 6})
        .filter([](const sweep::Point &p) { return p.at("x") % 2 == 0; })
        .filter([](const sweep::Point &p) { return p.at("x") > 2; });
    auto pts = g.points();
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].at("x"), 4);
    EXPECT_EQ(pts[1].at("x"), 6);
}

TEST(GridTest, EmptyGridHasNoPoints)
{
    sweep::Grid g;
    EXPECT_TRUE(g.points().empty());
    EXPECT_EQ(g.size(), 0u);
}

TEST(GridTest, SizeMatchesPoints)
{
    sweep::Grid g;
    g.axis("a", {1, 2, 3}).axis("b", {1, 2});
    EXPECT_EQ(g.size(), 6u);
}

TEST(GridTest, UnknownAxisPanics)
{
    sweep::Grid g;
    g.axis("a", {1});
    auto pts = g.points();
    EXPECT_DEATH(pts[0].at("missing"), "no axis named");
}

TEST(GridTest, DuplicateAxisPanics)
{
    sweep::Grid g;
    g.axis("a", {1});
    EXPECT_DEATH(g.axis("a", {2}), "duplicate axis");
}

} // namespace
