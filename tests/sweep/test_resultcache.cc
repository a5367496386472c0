/**
 * @file
 * ResultCache semantics: persistence across opens, the
 * never-serve-stale-rows header policy (mismatch rewrites, it does not
 * error), tail/middle damage degradation, the pinned file bytes, and
 * the headline behaviour — after a one-axis change, a cached sweep
 * recomputes only the genuinely new configurations.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "base/fsutil.hh"
#include "sweep/journal.hh"
#include "sweep/resultcache.hh"

namespace {

using namespace eq;
using sweep::Cell;
using sweep::Column;
using sweep::ValueKind;

std::vector<Column>
schema()
{
    return {{"a", ValueKind::Int, 0, 0},
            {"val", ValueKind::Real, 0, 4}};
}

constexpr const char *kSig = "a:i;val:r";

std::vector<Cell>
rowFor(int64_t a)
{
    return {a, double(a) * 1.5};
}

class ResultCacheTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "eq_cache_" +
               std::string(info->name()) + ".ndjson";
        std::remove(path.c_str());
    }

    bool
    openDefault(sweep::ResultCache &cache, std::string *err)
    {
        return cache.open(path, kSig, "interp", schema(), err);
    }

    /** Sweep @p grid's "a" axis through runJournaledSweep with the
     *  cache at `path`; @p calls counts simulated points. */
    ErrorCode
    cachedSweep(const sweep::Grid &grid, sweep::Table *table,
                sweep::ResumeStats *stats, std::string *err,
                size_t *calls = nullptr)
    {
        sim::EngineOptions engine;
        engine.backend = sim::Backend::Interp;
        sweep::JournalOptions opts;
        opts.cachePath = path;
        sweep::SweepRunner runner({1});
        const std::vector<sweep::Point> points = grid.points();
        return runJournaledSweep(
            runner, points, schema(),
            [](const sweep::Point &p) {
                return "a=" + std::to_string(p.at("a"));
            },
            [&](const sweep::Point &p, unsigned) {
                if (calls)
                    ++*calls;
                return rowFor(p.at("a"));
            },
            opts, sweep::gridIdentity(points, schema(), "", engine),
            table, stats, err);
    }

    std::string path;
};

/** The whole file, header line included: caches written by earlier
 *  releases are reused only while these bytes hold. */
TEST_F(ResultCacheTest, FileBytesArePinned)
{
    sweep::Grid grid;
    grid.axis("a", {1, 2, 3});
    sweep::Table t{schema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(cachedSweep(grid, &t, &st, &err), ErrorCode::Ok)
        << err;
    std::string text;
    ASSERT_TRUE(fs::readFile(path, &text, &err)) << err;
    EXPECT_EQ(text,
              "{\"cache\":\"eqsweep-results\",\"version\":1,"
              "\"schema\":\"a:i;val:r\",\"backend\":\"interp\"}\n"
              "{\"h\":\"e650e41904922b36\",\"key\":\"a=1\","
              "\"cells\":[1,1.5],\"crc\":4037453027}\n"
              "{\"h\":\"e650e31904922983\",\"key\":\"a=2\","
              "\"cells\":[2,3],\"crc\":2051060904}\n"
              "{\"h\":\"e650e219049227d0\",\"key\":\"a=3\","
              "\"cells\":[3,4.5],\"crc\":3578475191}\n");
}

TEST_F(ResultCacheTest, RowsPersistAcrossOpens)
{
    std::string err;
    {
        sweep::ResultCache cache;
        ASSERT_TRUE(openDefault(cache, &err)) << err;
        ASSERT_TRUE(cache.append("k1", rowFor(1), &err)) << err;
        ASSERT_TRUE(cache.append("k2", rowFor(2), &err)) << err;
        EXPECT_EQ(cache.stats().appended, 2u);
    }
    // Key hashes are persisted as 16 hex digits: caches written by
    // earlier releases are found only while these bytes hold.
    EXPECT_EQ(sweep::hashKey("systolic {\"ah\":4}"),
              0x4bda16730ed14b08ull);
    std::string text;
    ASSERT_TRUE(fs::readFile(path, &text, &err)) << err;
    EXPECT_NE(text.find("\"h\":\"08be0f07b56224c1\",\"key\":\"k1\""),
              std::string::npos)
        << text;

    sweep::ResultCache cache;
    ASSERT_TRUE(openDefault(cache, &err)) << err;
    EXPECT_EQ(cache.stats().loaded, 2u);
    const std::vector<Cell> *hit = cache.lookup("k2");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ((*hit)[0].asInt(), 2);
    EXPECT_DOUBLE_EQ((*hit)[1].asReal(), 3.0);
    EXPECT_EQ(cache.lookup("k3"), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ResultCacheTest, DuplicateAppendIsFirstWriteWins)
{
    std::string err;
    sweep::ResultCache cache;
    ASSERT_TRUE(openDefault(cache, &err)) << err;
    ASSERT_TRUE(cache.append("k", rowFor(1), &err));
    ASSERT_TRUE(cache.append("k", rowFor(7), &err));
    EXPECT_EQ(cache.stats().appended, 1u);
    EXPECT_EQ(cache.lookup("k")->at(0).asInt(), 1);
}

TEST_F(ResultCacheTest, HeaderMismatchRewritesInsteadOfServingStale)
{
    std::string err;
    {
        sweep::ResultCache cache;
        ASSERT_TRUE(openDefault(cache, &err)) << err;
        ASSERT_TRUE(cache.append("k1", rowFor(1), &err));
    }
    // Same file, different backend: the rows must not be reused.
    sweep::ResultCache cache;
    ASSERT_TRUE(
        cache.open(path, kSig, "compiled", schema(), &err))
        << err;
    EXPECT_EQ(cache.stats().loaded, 0u);
    EXPECT_EQ(cache.stats().discarded, 1u);
    EXPECT_EQ(cache.lookup("k1"), nullptr);

    // And the rewrite is durable: reopening under the *original* mode
    // finds nothing either (the stale rows are gone, not resurrected).
    cache.close();
    sweep::ResultCache back;
    ASSERT_TRUE(openDefault(back, &err)) << err;
    EXPECT_EQ(back.stats().loaded, 0u);
}

TEST_F(ResultCacheTest, TornTailIsDroppedQuietly)
{
    std::string err;
    {
        sweep::ResultCache cache;
        ASSERT_TRUE(openDefault(cache, &err)) << err;
        ASSERT_TRUE(cache.append("k1", rowFor(1), &err));
        ASSERT_TRUE(cache.append("k2", rowFor(2), &err));
    }
    std::string text;
    ASSERT_TRUE(fs::readFile(path, &text, &err));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() - 5); // tear the last record
    }
    sweep::ResultCache cache;
    ASSERT_TRUE(openDefault(cache, &err)) << err;
    EXPECT_EQ(cache.stats().loaded, 1u);
    EXPECT_EQ(cache.stats().discarded, 1u);
    EXPECT_NE(cache.lookup("k1"), nullptr);
    EXPECT_EQ(cache.lookup("k2"), nullptr);
    // The torn bytes are gone from disk; k2 can be re-appended.
    ASSERT_TRUE(cache.append("k2", rowFor(2), &err)) << err;
}

TEST_F(ResultCacheTest, DamageMidFileDropsTheSuffixNotTheCache)
{
    std::string err;
    {
        sweep::ResultCache cache;
        ASSERT_TRUE(openDefault(cache, &err)) << err;
        ASSERT_TRUE(cache.append("k1", rowFor(1), &err));
        ASSERT_TRUE(cache.append("k2", rowFor(2), &err));
        ASSERT_TRUE(cache.append("k3", rowFor(3), &err));
    }
    std::string text;
    ASSERT_TRUE(fs::readFile(path, &text, &err));
    size_t k2 = text.find("\"k2\"");
    ASSERT_NE(k2, std::string::npos);
    text[k2 + 1] ^= 0x01; // corrupt record 2 of 3
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    sweep::ResultCache cache;
    ASSERT_TRUE(openDefault(cache, &err)) << err;
    EXPECT_EQ(cache.stats().loaded, 1u);
    EXPECT_EQ(cache.stats().discarded, 2u);
    EXPECT_NE(cache.lookup("k1"), nullptr);
    EXPECT_EQ(cache.lookup("k3"), nullptr);
}

TEST_F(ResultCacheTest, OneAxisChangeRecomputesOnlyNewPoints)
{
    // The headline re-plot scenario, through the full journaled-sweep
    // path: sweep a∈{1,2,3} with a cache, then sweep a∈{1,2,3,4} —
    // only a=4 may simulate.
    size_t calls = 0;
    sweep::Grid g1;
    g1.axis("a", {1, 2, 3});
    sweep::Table t1{schema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(cachedSweep(g1, &t1, &st, &err, &calls),
              ErrorCode::Ok)
        << err;
    EXPECT_EQ(calls, 3u);

    sweep::Grid g2;
    g2.axis("a", {1, 2, 3, 4});
    sweep::Table t2{schema()};
    calls = 0;
    ASSERT_EQ(cachedSweep(g2, &t2, &st, &err, &calls),
              ErrorCode::Ok)
        << err;
    EXPECT_EQ(calls, 1u) << "only the new point may simulate";
    EXPECT_EQ(st.fromCache, 3u);
    EXPECT_EQ(st.computed, 1u);
    ASSERT_EQ(t2.numRows(), 4u);
    EXPECT_EQ(t2.at(3, 0).asInt(), 4);
}

} // namespace
