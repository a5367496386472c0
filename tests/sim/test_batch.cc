/**
 * sim::Session reuse semantics: re-runs of a pinned module must be
 * observationally identical to a fresh Simulator per run — same cycles,
 * same event/op counts, same memory traffic, same processor busy time —
 * while actually reusing the dispatch tables, value numbering and (on
 * the compiled backend) the lowered programs. Also covers the hazard
 * cases on both backends: a rebuild whose new module may reuse the old
 * one's addresses, and plain simulate() calls interleaved on the
 * session's own Simulator.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

scalesim::Config
smallConfig(int hw, scalesim::Dataflow df)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = hw;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    cfg.dataflow = df;
    return cfg;
}

/** Compare every deterministic field of two reports. */
void
expectReportsIdentical(const sim::SimReport &a, const sim::SimReport &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.opsExecuted, b.opsExecuted);
    ASSERT_EQ(a.memories.size(), b.memories.size());
    for (size_t i = 0; i < a.memories.size(); ++i) {
        EXPECT_EQ(a.memories[i].name, b.memories[i].name);
        EXPECT_EQ(a.memories[i].bytesRead, b.memories[i].bytesRead);
        EXPECT_EQ(a.memories[i].bytesWritten, b.memories[i].bytesWritten);
    }
    ASSERT_EQ(a.processors.size(), b.processors.size());
    for (size_t i = 0; i < a.processors.size(); ++i) {
        EXPECT_EQ(a.processors[i].name, b.processors[i].name);
        EXPECT_EQ(a.processors[i].busyCycles, b.processors[i].busyCycles);
        EXPECT_EQ(a.processors[i].opsExecuted,
                  b.processors[i].opsExecuted);
    }
    ASSERT_EQ(a.connections.size(), b.connections.size());
    for (size_t i = 0; i < a.connections.size(); ++i) {
        EXPECT_EQ(a.connections[i].readBytes, b.connections[i].readBytes);
        EXPECT_EQ(a.connections[i].writeBytes,
                  b.connections[i].writeBytes);
    }
}

/** One fresh-everything run, the reference every reused run matches. */
sim::SimReport
freshRun(const scalesim::Config &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);
    sim::Simulator s;
    return s.simulate(module.get());
}

sim::EngineOptions
engineFor(sim::Backend backend)
{
    sim::EngineOptions opts;
    opts.backend = backend;
    return opts;
}

sim::Session::BuildFn
builderFor(const scalesim::Config &cfg)
{
    return [cfg](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    };
}

/** Later runs reuse the session's tables (and, on the compiled
 *  backend, the lowered programs); every run must match a fresh
 *  Simulator. */
void
checkRepeatedRuns(sim::Backend backend)
{
    auto cfg = smallConfig(4, scalesim::Dataflow::WS);
    sim::Session session(engineFor(backend));
    session.rebuild(builderFor(cfg));
    auto first = session.run();
    expectReportsIdentical(first, freshRun(cfg));
    for (int i = 0; i < 3; ++i)
        expectReportsIdentical(session.run(), first);
    EXPECT_EQ(session.runsCompleted(), 4u);
}

/** A plain simulate() of another module on the session's own Simulator
 *  resets numbering (and drops the compiled programs); the session's
 *  next run renumbers and relowers lazily. */
void
checkInterleavedPlainSimulate(sim::Backend backend)
{
    auto cfg_a = smallConfig(4, scalesim::Dataflow::WS);
    auto cfg_b = smallConfig(3, scalesim::Dataflow::OS);
    sim::Session session(engineFor(backend));
    session.rebuild(builderFor(cfg_a));
    auto mod_b = systolic::buildSystolicModule(session.context(), cfg_b);

    auto baseline = session.run();
    auto other = session.simulator().simulate(mod_b.get());
    expectReportsIdentical(other, freshRun(cfg_b));
    expectReportsIdentical(session.run(), baseline);
}

/** rebuild() destroys the old module before building the new one, so
 *  the allocator may hand the new blocks the old addresses; the first
 *  run after the rebuild must renumber (and relower) from scratch. */
void
checkRebuildAtReusedAddress(sim::Backend backend)
{
    auto cfg1 = smallConfig(4, scalesim::Dataflow::WS);
    auto cfg2 = smallConfig(3, scalesim::Dataflow::IS);
    sim::Session session(engineFor(backend));
    session.rebuild(builderFor(cfg1));
    expectReportsIdentical(session.run(), freshRun(cfg1));

    session.rebuild(builderFor(cfg2));
    expectReportsIdentical(session.run(), freshRun(cfg2));
    expectReportsIdentical(session.run(), freshRun(cfg2));
}

TEST(BatchSessionTest, RepeatedRunsAreCycleIdentical)
{
    checkRepeatedRuns(sim::Backend::Interp);
}

TEST(BatchSessionTest, CompiledBackendBatchesAreCycleIdentical)
{
    checkRepeatedRuns(sim::Backend::Compiled);
}

TEST(BatchSessionTest, MatchesFreshSimulatorAcrossConfigs)
{
    // The sweep-worker pattern: one session, rebuilt per structural
    // point.
    sim::Session session;
    for (int hw : {2, 3, 4}) {
        for (auto df : {scalesim::Dataflow::WS, scalesim::Dataflow::OS}) {
            auto cfg = smallConfig(hw, df);
            session.rebuild(builderFor(cfg));
            auto first = session.run();
            expectReportsIdentical(first, freshRun(cfg));
            // The second run exercises the numbering-reuse path.
            expectReportsIdentical(session.run(), first);
        }
    }
}

TEST(BatchSessionTest, SurvivesInterleavedPlainSimulate)
{
    checkInterleavedPlainSimulate(sim::Backend::Interp);
}

TEST(BatchSessionTest, CompiledBackendSurvivesInterleavedPlainSimulate)
{
    checkInterleavedPlainSimulate(sim::Backend::Compiled);
}

TEST(BatchSessionTest, SessionAfterModuleRebuildAtSameAddressIsSafe)
{
    checkRebuildAtReusedAddress(sim::Backend::Interp);
}

TEST(BatchSessionTest, CompiledBackendSessionAfterModuleRebuild)
{
    checkRebuildAtReusedAddress(sim::Backend::Compiled);
}

} // namespace
