/**
 * @file
 * sim::Session contract: one Context + Simulator + pinned module
 * behind a rebuild()/run() facade. ready() flips on the first rebuild,
 * repeated runs of the same pinned module report identical
 * deterministic fields, rebuild() swaps the
 * pinned program (reports track the new config), and run counters /
 * build timing behave as documented.
 */

#include <gtest/gtest.h>

#include "scalesim/scalesim.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

sim::Session::BuildFn
systolicBuilder(const scalesim::Config &cfg)
{
    return [cfg](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    };
}

TEST(SimSession, StartsNotReady)
{
    sim::Session session;
    EXPECT_FALSE(session.ready());
    EXPECT_EQ(session.module(), nullptr);
    EXPECT_EQ(session.runsCompleted(), 0u);
}

TEST(SimSession, RebuildThenRun)
{
    sim::Session session;
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    session.rebuild(systolicBuilder(cfg));
    ASSERT_TRUE(session.ready());
    ASSERT_NE(session.module(), nullptr);
    EXPECT_GT(session.lastBuildSeconds(), 0.0);

    sim::SimReport report = session.run();
    EXPECT_GT(report.cycles, 0u);
    EXPECT_GT(report.opsExecuted, 0u);
    EXPECT_EQ(session.runsCompleted(), 1u);
}

TEST(SimSession, RepeatRunsAreDeterministic)
{
    sim::Session session;
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    session.rebuild(systolicBuilder(cfg));

    sim::SimReport first = session.run();
    sim::SimReport second = session.run();
    sim::SimReport third = session.run();
    for (const sim::SimReport *r : {&second, &third}) {
        EXPECT_EQ(r->cycles, first.cycles);
        EXPECT_EQ(r->eventsExecuted, first.eventsExecuted);
        EXPECT_EQ(r->opsExecuted, first.opsExecuted);
        EXPECT_EQ(r->dispatchCount, first.dispatchCount);
        ASSERT_EQ(r->memories.size(), first.memories.size());
        for (size_t i = 0; i < r->memories.size(); ++i) {
            EXPECT_EQ(r->memories[i].bytesRead,
                      first.memories[i].bytesRead);
            EXPECT_EQ(r->memories[i].bytesWritten,
                      first.memories[i].bytesWritten);
        }
    }
    EXPECT_EQ(session.runsCompleted(), 3u);
}

TEST(SimSession, RebuildSwapsProgram)
{
    sim::Session session;
    scalesim::Config small;
    small.ah = small.aw = 2;
    session.rebuild(systolicBuilder(small));
    sim::SimReport smallReport = session.run();

    scalesim::Config big;
    big.ah = big.aw = 4;
    session.rebuild(systolicBuilder(big));
    sim::SimReport bigReport = session.run();
    // More PEs simulate more ops for the same conv problem.
    EXPECT_NE(bigReport.opsExecuted, smallReport.opsExecuted);

    // Rebuilding back reproduces the original report exactly.
    session.rebuild(systolicBuilder(small));
    sim::SimReport again = session.run();
    EXPECT_EQ(again.cycles, smallReport.cycles);
    EXPECT_EQ(again.opsExecuted, smallReport.opsExecuted);
    // The counter tracks the currently pinned module, so each rebuild
    // resets it.
    EXPECT_EQ(session.runsCompleted(), 1u);
}

TEST(SimSession, MatchesFreshSimulator)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;

    sim::Session session;
    session.rebuild(systolicBuilder(cfg));
    sim::SimReport sessionReport = session.run();

    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);
    sim::Simulator sim;
    sim::SimReport fresh = sim.simulate(module.get());
    EXPECT_EQ(sessionReport.cycles, fresh.cycles);
    EXPECT_EQ(sessionReport.opsExecuted, fresh.opsExecuted);
    EXPECT_EQ(sessionReport.eventsExecuted, fresh.eventsExecuted);
}

} // namespace
