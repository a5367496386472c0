/**
 * @file
 * Systolic generator tests: emitted modules verify, and the event-queue
 * simulation agrees with the SCALE-Sim analytic baseline on cycles and
 * SRAM traffic (the Fig. 9 claim), across a parameter sweep. The
 * emitted text of a few configs is pinned, so a refactor of the
 * emitter that changes a byte of any module fails here.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/hash.hh"
#include "scalesim/scalesim.hh"
#include "sim/engine.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;
using systolic::Config;
using systolic::Dataflow;

sim::SimReport
simulateFresh(const Config &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);
    EXPECT_EQ(module->verify(), "");
    sim::Simulator s;
    return s.simulate(module.get());
}

int64_t
sramBytes(const sim::SimReport &rep, bool writes)
{
    for (const auto &m : rep.memories)
        if (m.kind == "SRAM")
            return writes ? m.bytesWritten : m.bytesRead;
    return -1;
}

TEST(SystolicTest, TinyWsMatchesAnalyticModelExactly)
{
    Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 3;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2; // K=4, N=2, T=4
    cfg.dataflow = Dataflow::WS;
    auto rep = simulateFresh(cfg);
    auto ref = scalesim::simulate(cfg);
    EXPECT_EQ(rep.cycles, ref.cycles);
}

TEST(SystolicTest, SramTrafficMatchesModel)
{
    Config cfg;
    cfg.ah = cfg.aw = 4;
    cfg.c = 1;
    cfg.h = cfg.w = 6;
    cfg.n = 4;
    cfg.fh = cfg.fw = 2;
    cfg.dataflow = Dataflow::WS;
    auto rep = simulateFresh(cfg);
    auto ref = scalesim::simulate(cfg);
    // SRAM reads = ifmap stream + weight preload; writes = ofmap exits.
    EXPECT_EQ(sramBytes(rep, false),
              ref.sramIfmapReadBytes + ref.sramWeightReadBytes);
    EXPECT_EQ(sramBytes(rep, true), ref.sramOfmapWriteBytes);
}

TEST(SystolicTest, OsHasNoPreloadTraffic)
{
    Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 4;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    cfg.dataflow = Dataflow::OS;
    auto rep = simulateFresh(cfg);
    auto ref = scalesim::simulate(cfg);
    EXPECT_EQ(rep.cycles, ref.cycles);
    EXPECT_EQ(sramBytes(rep, false),
              ref.sramIfmapReadBytes + ref.sramWeightReadBytes);
    EXPECT_EQ(sramBytes(rep, true), ref.sramOfmapWriteBytes);
}

TEST(SystolicTest, MacUnitsAreBusyDuringStreaming)
{
    Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 4;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    auto rep = simulateFresh(cfg);
    uint64_t mac_busy = 0;
    for (const auto &p : rep.processors)
        if (p.kind == "MAC")
            mac_busy += p.busyCycles;
    // Every active PE macs once per streaming+drain step.
    EXPECT_GT(mac_busy, 0u);
}

/** The headline Fig. 9 property: EQueue simulation == SCALE-Sim, over a
 *  sweep of array sizes, convolutions, and all three dataflows. */
class SystolicVsScaleSim
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, Dataflow>> {};

TEST_P(SystolicVsScaleSim, CyclesAndTrafficAgree)
{
    auto [ah, hw, f, n, df] = GetParam();
    Config cfg;
    cfg.ah = ah;
    cfg.aw = std::max(2, 8 / ah); // keep arrays small for test speed
    cfg.c = 2;
    cfg.h = cfg.w = hw;
    cfg.n = n;
    cfg.fh = cfg.fw = f;
    cfg.dataflow = df;
    if (cfg.h < cfg.fh)
        GTEST_SKIP();

    auto rep = simulateFresh(cfg);
    auto ref = scalesim::simulate(cfg);
    EXPECT_EQ(rep.cycles, ref.cycles)
        << "dataflow=" << scalesim::dataflowName(df) << " ah=" << ah
        << " hw=" << hw << " f=" << f << " n=" << n;
    EXPECT_EQ(sramBytes(rep, true), ref.sramOfmapWriteBytes);
    EXPECT_EQ(sramBytes(rep, false),
              ref.sramIfmapReadBytes + ref.sramWeightReadBytes);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SystolicVsScaleSim,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(4, 6),
                       ::testing::Values(1, 2),
                       ::testing::Values(1, 3),
                       ::testing::Values(Dataflow::WS, Dataflow::IS,
                                         Dataflow::OS)));

/** FNV-1a of the printed text of the module emitted for @p cfg. */
std::string
printedHash(const Config &cfg, const systolic::EmitOptions &opts)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    ir::OwningOpRef module = ir::createModule(ctx);
    systolic::emitSystolicInto(module.get(), cfg, opts);
    std::ostringstream os;
    module->print(os);
    return hexU64(fnv1aBytes(kFnvOffset, os.str()));
}

/** The emitted modules of each dataflow with partial folds in both
 *  array dimensions, with and without the final cool-down, hash to
 *  fixed values: every report, trace and golden follows from them. */
TEST(SystolicTest, EmittedModulesArePinned)
{
    struct Case {
        Dataflow df;
        bool skipFinalDrain;
        const char *hash;
    };
    const Case cases[] = {
        {Dataflow::WS, false, "1084279d4b12ee12"},
        {Dataflow::IS, false, "bf85896786a49cf9"},
        {Dataflow::OS, false, "42439bc46a1f870a"},
        {Dataflow::WS, true, "220071f99aa1221c"},
        {Dataflow::IS, true, "232b6aa3c96c3bb3"},
        {Dataflow::OS, true, "3270def0232cd5b4"},
    };
    for (const Case &c : cases) {
        Config cfg;
        cfg.ah = 3;
        cfg.aw = 2;
        cfg.c = 2;
        cfg.h = cfg.w = 4;
        cfg.n = 3;
        cfg.fh = cfg.fw = 2;
        cfg.dataflow = c.df;
        systolic::EmitOptions opts;
        opts.skipFinalDrain = c.skipFinalDrain;
        EXPECT_EQ(printedHash(cfg, opts), c.hash)
            << scalesim::dataflowName(c.df)
            << " skipFinalDrain=" << c.skipFinalDrain;
    }
}

} // namespace
