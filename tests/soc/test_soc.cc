/**
 * @file
 * SoC scenario-family generator tests: config value semantics (equality
 * and hashing for worker caches), module well-formedness across the
 * shipped factories, exact byte accounting against the closed-form
 * traffic formulas, and contention monotonicity (narrower shared
 * resources never make the system faster). The emitted text of a few
 * configs is pinned, so a refactor of the emitters that changes a byte
 * of any module fails here.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/hash.hh"
#include "sim/engine.hh"
#include "soc/soc.hh"

namespace {

using namespace eq;

sim::SimReport
simulateSoc(const soc::SocConfig &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildSocModule(ctx, cfg);
    EXPECT_EQ(module->verify(), "");
    sim::Simulator s;
    return s.simulate(module.get());
}

sim::SimReport
simulatePipeline(const soc::PipelineConfig &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildPipelineModule(ctx, cfg);
    EXPECT_EQ(module->verify(), "");
    sim::Simulator s;
    return s.simulate(module.get());
}

TEST(SocConfig, EqualityAndHashTrackEveryField)
{
    soc::SocConfig a = soc::SocConfig::dualSharedBus();
    soc::SocConfig b = a;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());

    b.busBytesPerCycle = 16;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());

    b = a;
    b.accels[1].dataflow = scalesim::Dataflow::OS;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());

    b = a;
    b.busKind = "Window";
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());

    b = a;
    b.accels.push_back(soc::TileSpec{});
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(SocConfig, FactoriesAreDistinct)
{
    EXPECT_NE(soc::SocConfig::dualSharedBus(),
              soc::SocConfig::heteroStarved());
    EXPECT_NE(soc::SocConfig::dualSharedBus().hash(),
              soc::SocConfig::heteroStarved().hash());
}

TEST(PipelineConfig, EqualityAndHashTrackEveryField)
{
    soc::PipelineConfig a = soc::PipelineConfig::small();
    soc::PipelineConfig b = a;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    b.stages += 1;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
    b = a;
    b.hopBytesPerCycle = 1;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(SocModule, DualSharedBusVerifiesAndRuns)
{
    auto rep = simulateSoc(soc::SocConfig::dualSharedBus());
    EXPECT_GT(rep.cycles, 0u);
    EXPECT_GT(rep.eventsExecuted, 0u);
    // 2 tiles x 2x2 PEs, plus one DMA.
    int macs = 0;
    for (const auto &p : rep.processors)
        if (p.kind == "MAC")
            ++macs;
    EXPECT_EQ(macs, 8);
    for (const auto &p : rep.processors) {
        EXPECT_GE(p.utilization, 0.0) << p.name;
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
    }
}

TEST(SocModule, HeteroStarvedVerifiesAndRuns)
{
    auto rep = simulateSoc(soc::SocConfig::heteroStarved());
    EXPECT_GT(rep.cycles, 0u);
    for (const auto &p : rep.processors) {
        EXPECT_GE(p.utilization, 0.0) << p.name;
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
    }
}

TEST(SocModule, PipelineVerifiesAndRuns)
{
    auto rep = simulatePipeline(soc::PipelineConfig::small());
    EXPECT_GT(rep.cycles, 0u);
    for (const auto &p : rep.processors) {
        EXPECT_GE(p.utilization, 0.0) << p.name;
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
    }
}

/** The bus is the first connection created; per-tile links follow in
 *  accelerator order. */
TEST(SocTraffic, DualSharedBusMatchesClosedForm)
{
    soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
    auto rep = simulateSoc(cfg);
    auto want = soc::expectedSocTraffic(cfg);
    ASSERT_EQ(rep.connections.size(), 1 + cfg.accels.size());
    EXPECT_EQ(rep.connections[0].readBytes, want.busReadBytes);
    EXPECT_EQ(rep.connections[0].writeBytes, want.busWriteBytes);
    for (size_t a = 0; a < cfg.accels.size(); ++a) {
        EXPECT_EQ(rep.connections[1 + a].readBytes, want.linkReadBytes[a])
            << "accel " << a;
        EXPECT_EQ(rep.connections[1 + a].writeBytes,
                  want.linkWriteBytes[a])
            << "accel " << a;
    }
}

TEST(SocTraffic, HeteroStarvedMatchesClosedForm)
{
    soc::SocConfig cfg = soc::SocConfig::heteroStarved();
    auto rep = simulateSoc(cfg);
    auto want = soc::expectedSocTraffic(cfg);
    ASSERT_EQ(rep.connections.size(), 1 + cfg.accels.size());
    EXPECT_EQ(rep.connections[0].readBytes, want.busReadBytes);
    EXPECT_EQ(rep.connections[0].writeBytes, want.busWriteBytes);
    // Tile 0 is WS: preloads arrive over its link; tile 1 is OS:
    // accumulators drain over its link.
    EXPECT_GT(want.linkReadBytes[0], 0);
    EXPECT_EQ(want.linkWriteBytes[0], 0);
    EXPECT_EQ(want.linkReadBytes[1], 0);
    EXPECT_GT(want.linkWriteBytes[1], 0);
    for (size_t a = 0; a < cfg.accels.size(); ++a) {
        EXPECT_EQ(rep.connections[1 + a].readBytes, want.linkReadBytes[a])
            << "accel " << a;
        EXPECT_EQ(rep.connections[1 + a].writeBytes,
                  want.linkWriteBytes[a])
            << "accel " << a;
    }
}

/** Connections: conn-in, conn-out, then one hop per stage. */
TEST(SocTraffic, PipelineMatchesClosedForm)
{
    soc::PipelineConfig cfg = soc::PipelineConfig::small();
    auto rep = simulatePipeline(cfg);
    auto want = soc::expectedPipelineTraffic(cfg);
    ASSERT_EQ(rep.connections.size(), 2 + size_t(cfg.stages));
    EXPECT_EQ(rep.connections[0].writeBytes, want.inBytes);
    EXPECT_EQ(rep.connections[1].writeBytes, want.outBytes);
    for (int s = 0; s < cfg.stages; ++s)
        EXPECT_EQ(rep.connections[2 + s].writeBytes, want.hopBytes)
            << "hop " << s;
}

TEST(SocContention, NarrowerBusNeverFaster)
{
    uint64_t prev = ~0ull;
    for (int64_t bw : {1, 2, 4, 8, 16}) {
        soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
        cfg.busBytesPerCycle = bw;
        uint64_t cycles = simulateSoc(cfg).cycles;
        EXPECT_LE(cycles, prev) << "bus bw=" << bw;
        prev = cycles;
    }
}

TEST(SocContention, MoreDmaEnginesNeverSlower)
{
    soc::SocConfig one = soc::SocConfig::dualSharedBus();
    soc::SocConfig two = one;
    two.dmaEngines = 2;
    EXPECT_LE(simulateSoc(two).cycles, simulateSoc(one).cycles);
}

TEST(SocContention, SecondTileCostsCyclesOnSharedBus)
{
    soc::SocConfig dual = soc::SocConfig::dualSharedBus();
    soc::SocConfig solo = dual;
    solo.accels.resize(1);
    EXPECT_GE(simulateSoc(dual).cycles, simulateSoc(solo).cycles);
}

TEST(SocContention, PipelineBatchesMonotone)
{
    uint64_t prev = 0;
    for (int batches : {1, 2, 4, 8}) {
        soc::PipelineConfig cfg = soc::PipelineConfig::small();
        cfg.batches = batches;
        uint64_t cycles = simulatePipeline(cfg).cycles;
        EXPECT_GE(cycles, prev) << "batches=" << batches;
        prev = cycles;
    }
}

TEST(SocContention, PipelineOverlapsBatches)
{
    // Doubling the item count must cost less than double the cycles:
    // the chain genuinely pipelines (fill/drain amortized).
    soc::PipelineConfig cfg = soc::PipelineConfig::small();
    cfg.batches = 2;
    uint64_t c2 = simulatePipeline(cfg).cycles;
    cfg.batches = 4;
    uint64_t c4 = simulatePipeline(cfg).cycles;
    EXPECT_LT(c4, 2 * c2);
}

/** FNV-1a of the printed text of @p module. */
std::string
printedHash(const ir::OwningOpRef &module)
{
    std::ostringstream os;
    module->print(os);
    return hexU64(fnv1aBytes(kFnvOffset, os.str()));
}

/** The emitted modules of the shipped factories, a three-tile
 *  WS/IS/OS SoC behind a Window bus with two DMAs, a zero-round SoC
 *  and two pipelines hash to fixed values: every report, trace and
 *  golden follows from them. */
TEST(SocModule, EmittedModulesArePinned)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);

    soc::SocConfig mixed;
    mixed.accels = {soc::TileSpec{2, 3, scalesim::Dataflow::WS, 8},
                    soc::TileSpec{3, 2, scalesim::Dataflow::IS, 4},
                    soc::TileSpec{2, 2, scalesim::Dataflow::OS, 2}};
    mixed.busKind = "Window";
    mixed.dmaEngines = 2;
    mixed.rounds = 2;
    mixed.steps = 3;
    soc::SocConfig idle = soc::SocConfig::heteroStarved();
    idle.rounds = 0;
    const std::pair<soc::SocConfig, const char *> socs[] = {
        {soc::SocConfig::dualSharedBus(), "2f11086d0bdb6130"},
        {soc::SocConfig::heteroStarved(), "3fc78643f30942e7"},
        {mixed, "c78d96a83775639b"},
        {idle, "79173f3fb997fc2f"},
    };
    for (const auto &[cfg, hash] : socs)
        EXPECT_EQ(printedHash(soc::buildSocModule(ctx, cfg)), hash)
            << "tiles=" << cfg.accels.size() << " rounds=" << cfg.rounds;

    soc::PipelineConfig one = soc::PipelineConfig::small();
    one.stages = 1;
    one.batches = 3;
    const std::pair<soc::PipelineConfig, const char *> pipes[] = {
        {soc::PipelineConfig::small(), "11fa0709d83c5fff"},
        {one, "240c41e53217133e"},
    };
    for (const auto &[cfg, hash] : pipes)
        EXPECT_EQ(printedHash(soc::buildPipelineModule(ctx, cfg)), hash)
            << "stages=" << cfg.stages;
}

} // namespace
