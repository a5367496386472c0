/**
 * @file
 * SweepRunner threading semantics: result order is point order — never
 * thread-schedule order — so the emitted table is byte-identical at 1,
 * 4, and hardware-concurrency threads; EQ_SWEEP_THREADS and the
 * Options::threads override resolve as documented; every point runs
 * exactly once with a worker id inside the pool; a throwing point
 * fails the run on the caller's thread, never the process.
 *
 * The determinism suite runs both a pure-function grid and a real
 * engine sweep through the session pool the harnesses use (a
 * serve::ProgramCache sized to the thread count, which constructs one
 * sim::Session per thread and recycles it for every later key),
 * covering the exact sweep-runner contract the experiment harnesses
 * rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "serve/cache.hh"
#include "serve/models.hh"
#include "sweep/runner.hh"

namespace {

using namespace eq;
using sweep::Cell;
using sweep::Column;
using sweep::ValueKind;

sweep::Grid
smallGrid()
{
    sweep::Grid g;
    g.axis("a", {1, 2, 3, 4}).axis("b", {5, 6, 7});
    return g;
}

std::vector<Column>
abSchema()
{
    return {{"a", ValueKind::Int, 0, 0},
            {"b", ValueKind::Int, 0, 0},
            {"prod", ValueKind::Int, 0, 0}};
}

sweep::SweepRunner::RowFn
abRow()
{
    return [](const sweep::Point &p, unsigned) -> std::vector<Cell> {
        return {p.at("a"), p.at("b"), p.at("a") * p.at("b")};
    };
}

TEST(SweepRunnerTest, ByteIdenticalAcrossThreadCounts)
{
    auto grid = smallGrid();
    std::string baseline;
    for (unsigned threads :
         {1u, 4u, std::max(1u, std::thread::hardware_concurrency())}) {
        sweep::RunnerOptions opts;
        opts.threads = threads;
        auto table =
            sweep::SweepRunner(opts).run(grid, abSchema(), abRow());
        if (baseline.empty())
            baseline = table.csv();
        EXPECT_EQ(table.csv(), baseline)
            << "table diverged at " << threads << " threads";
    }
    EXPECT_NE(baseline.find("4,7,28"), std::string::npos);
}

TEST(SweepRunnerTest, EveryPointRunsOnceWithValidWorkerId)
{
    auto grid = smallGrid();
    sweep::RunnerOptions opts;
    opts.threads = 3;
    sweep::SweepRunner runner(opts);
    unsigned nthreads = runner.threadsFor(grid.size());
    std::atomic<unsigned> bad_worker{0};
    std::vector<std::atomic<int>> seen(grid.size());
    auto table = runner.run(
        grid, abSchema(),
        [&](const sweep::Point &p, unsigned w) -> std::vector<Cell> {
            if (w >= nthreads)
                ++bad_worker;
            ++seen[p.index()];
            return {p.at("a"), p.at("b"), int64_t{0}};
        });
    EXPECT_EQ(bad_worker, 0u);
    EXPECT_EQ(table.numRows(), grid.size());
    for (auto &s : seen)
        EXPECT_EQ(s.load(), 1);
}

TEST(SweepRunnerTest, ThreadResolutionPrecedence)
{
    // Explicit option wins over the environment.
    setenv("EQ_SWEEP_THREADS", "2", 1);
    sweep::RunnerOptions opts;
    opts.threads = 5;
    EXPECT_EQ(sweep::SweepRunner(opts).threadsFor(100), 5u);
    // Environment applies when the option is auto.
    EXPECT_EQ(sweep::SweepRunner().threadsFor(100), 2u);
    // Invalid env falls through to hardware concurrency, exactly like
    // an unset one: a value --threads would refuse is ignored whole.
    unsetenv("EQ_SWEEP_THREADS");
    const unsigned hardware = sweep::SweepRunner().threadsFor(100);
    for (const char *bad : {"bogus", "8x", "0", "99999999999999999999"}) {
        setenv("EQ_SWEEP_THREADS", bad, 1);
        EXPECT_EQ(sweep::SweepRunner().threadsFor(100), hardware) << bad;
    }
    unsetenv("EQ_SWEEP_THREADS");
    // Clamped to the number of points.
    sweep::RunnerOptions many;
    many.threads = 64;
    EXPECT_EQ(sweep::SweepRunner(many).threadsFor(3), 3u);
}

/** A point that throws on a worker thread reaches the caller as
 *  PointFailed naming that point, instead of terminating the
 *  process. */
TEST(SweepRunnerTest, ThrowingPointFailsTheRunOnTheCallersThread)
{
    sweep::Grid grid;
    grid.axis("a", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    sweep::RunnerOptions opts;
    opts.threads = 3;
    try {
        sweep::SweepRunner(opts).run(
            grid, {{"a", ValueKind::Int, 0, 0}},
            [](const sweep::Point &p, unsigned) -> std::vector<Cell> {
                if (p.index() == 5)
                    throw std::runtime_error("no such config");
                return {p.at("a")};
            });
        FAIL() << "the throwing point did not fail the run";
    } catch (const sweep::PointFailed &e) {
        EXPECT_EQ(e.point(), 5u);
        EXPECT_STREQ(e.what(), "point 5: no such config");
    }
}

TEST(SweepRunnerTest, EmptyGridYieldsEmptyTable)
{
    sweep::Grid g;
    g.axis("x", {1, 2}).filter(
        [](const sweep::Point &) { return false; });
    auto table = sweep::SweepRunner().run(g, abSchema(), abRow());
    EXPECT_EQ(table.numRows(), 0u);
}

scalesim::Config
configFor(const sweep::Point &p)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = static_cast<int>(p.at("hw"));
    cfg.n = static_cast<int>(p.at("n"));
    cfg.fh = cfg.fw = 2;
    cfg.dataflow = p.at("df") == 0 ? scalesim::Dataflow::WS
                                   : scalesim::Dataflow::OS;
    return cfg;
}

TEST(SweepRunnerTest, EngineSweepByteIdenticalAcrossThreadCounts)
{
    sweep::Grid grid;
    grid.axis("df", {0, 1}).axis("hw", {2, 4}).axis("n", {1, 2});

    std::vector<Column> schema{{"df", ValueKind::Int, 0, 0},
                               {"hw", ValueKind::Int, 0, 0},
                               {"n", ValueKind::Int, 0, 0},
                               {"cycles", ValueKind::Int, 0, 0}};

    std::string baseline;
    for (unsigned threads :
         {1u, 2u, 4u, std::max(1u, std::thread::hardware_concurrency())}) {
        sweep::RunnerOptions opts;
        opts.threads = threads;
        sweep::SweepRunner runner(opts);
        const unsigned pool = runner.threadsFor(grid.size());
        serve::ProgramCache cache(pool);

        auto table = runner.run(
            grid, schema,
            [&](const sweep::Point &p, unsigned) -> std::vector<Cell> {
                auto key = serve::ModelKey::systolicKey(configFor(p));
                return {p.at("df"), p.at("hw"), p.at("n"),
                        static_cast<int64_t>(
                            cache.acquire(key).run().cycles)};
            });
        if (baseline.empty())
            baseline = table.csv();
        EXPECT_EQ(table.csv(), baseline)
            << "engine sweep diverged at " << threads << " threads";

        // Every key is distinct, so every point misses; each thread
        // holds at most one handle, so an idle entry is always there to
        // recycle once the pool is full: exactly one Session per thread.
        const serve::ProgramCache::Stats stats = cache.stats();
        EXPECT_EQ(stats.misses, grid.size());
        EXPECT_EQ(stats.misses - stats.recycled, pool)
            << "sessions constructed at " << threads << " threads";
    }
}

} // namespace
