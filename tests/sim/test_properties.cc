/**
 * @file
 * Cross-subsystem property tests: simulation determinism, byte
 * conservation between producers and consumers, and utilization bounds,
 * swept over systolic and FIR configurations.
 */

#include <gtest/gtest.h>

#include "aie/fir.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "soc/soc.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

class SystolicPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, scalesim::Dataflow>> {
};

TEST_P(SystolicPropertySweep, DeterministicAndConservative)
{
    auto [hw, df] = GetParam();
    scalesim::Config cfg;
    cfg.ah = 2;
    cfg.aw = 4;
    cfg.c = 2;
    cfg.h = cfg.w = hw;
    cfg.n = 3;
    cfg.fh = cfg.fw = 2;
    cfg.dataflow = df;

    auto run = [&] {
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = systolic::buildSystolicModule(ctx, cfg);
        sim::Simulator s;
        return s.simulate(module.get());
    };
    auto r1 = run();
    auto r2 = run();

    // Determinism: identical reports from identical programs.
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.eventsExecuted, r2.eventsExecuted);
    EXPECT_EQ(r1.opsExecuted, r2.opsExecuted);

    // Utilization bounds: no processor exceeds 100%.
    for (const auto &p : r1.processors) {
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
        EXPECT_GE(p.utilization, 0.0) << p.name;
    }

    // Byte conservation: total MAC work (1 mac per PE per step) never
    // exceeds active-PE-count x cycles.
    uint64_t mac_busy = 0;
    for (const auto &p : r1.processors)
        if (p.kind == "MAC")
            mac_busy += p.busyCycles;
    EXPECT_LE(mac_busy, uint64_t(cfg.ah) * cfg.aw * r1.cycles);

    // SRAM traffic is element-aligned.
    for (const auto &m : r1.memories) {
        EXPECT_EQ(m.bytesRead % 4, 0) << m.name;
        EXPECT_EQ(m.bytesWritten % 4, 0) << m.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SystolicPropertySweep,
    ::testing::Combine(::testing::Values(3, 4, 6),
                       ::testing::Values(scalesim::Dataflow::WS,
                                         scalesim::Dataflow::IS,
                                         scalesim::Dataflow::OS)));

class FirPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(FirPropertySweep, StreamsConserveSamples)
{
    int cores = GetParam();
    aie::FirConfig cfg;
    cfg.cores = cores;
    cfg.streamBandwidth = 4;
    cfg.samples = 128;
    if (cfg.totalOpsPerGroup() % cores != 0)
        GTEST_SKIP();

    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = aie::buildFirModule(ctx, cfg);
    sim::Simulator s;
    auto rep = s.simulate(module.get());

    // Every link carries exactly the full series once:
    // groups x 16 bytes on each inter-core connection.
    int64_t series_bytes = int64_t(cfg.samples) * 4;
    for (const auto &c : rep.connections)
        EXPECT_EQ(c.writeBytes, series_bytes) << c.name;

    // Monotonicity: more cores -> fewer or equal cycles under the same
    // bandwidth (pipeline depth only helps).
    EXPECT_EQ(rep.cycles, aie::expectedFirCycles(cfg));
}

INSTANTIATE_TEST_SUITE_P(Cores, FirPropertySweep,
                         ::testing::Values(1, 2, 4, 8, 16));

/** SoC scenarios swept over the shipped families plus contention
 *  variants: exact shared-bus byte conservation, per-array utilization
 *  bounds under contention, and arbitration determinism across both
 *  repeated fresh runs and Session reuse. */
class SocPropertySweep : public ::testing::TestWithParam<int> {
  protected:
    static soc::SocConfig
    config(int variant)
    {
        switch (variant) {
        case 0:
            return soc::SocConfig::dualSharedBus();
        case 1:
            return soc::SocConfig::heteroStarved();
        case 2: { // bus squeezed to a single byte per cycle
            soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
            cfg.busBytesPerCycle = 1;
            return cfg;
        }
        default: { // three tiles racing one DMA engine
            soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
            cfg.accels.push_back(
                soc::TileSpec{2, 2, scalesim::Dataflow::OS, 4});
            return cfg;
        }
        }
    }
};

TEST_P(SocPropertySweep, SharedBusConservesBytes)
{
    soc::SocConfig cfg = config(GetParam());
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildSocModule(ctx, cfg);
    sim::Simulator s;
    auto rep = s.simulate(module.get());

    auto want = soc::expectedSocTraffic(cfg);
    ASSERT_EQ(rep.connections.size(), 1 + cfg.accels.size());
    EXPECT_EQ(rep.connections[0].readBytes, want.busReadBytes);
    EXPECT_EQ(rep.connections[0].writeBytes, want.busWriteBytes);
    for (size_t a = 0; a < cfg.accels.size(); ++a) {
        EXPECT_EQ(rep.connections[1 + a].readBytes,
                  want.linkReadBytes[a])
            << "accel " << a;
        EXPECT_EQ(rep.connections[1 + a].writeBytes,
                  want.linkWriteBytes[a])
            << "accel " << a;
    }
    // Everything the staging memcpys push across the bus lands in the
    // per-tile L1s (element-aligned, no bytes invented or lost).
    int64_t l1_written = 0;
    for (const auto &m : rep.memories)
        if (m.name.find("_L1") != std::string::npos)
            l1_written += m.bytesWritten;
    int64_t staged = 0;
    for (const auto &t : cfg.accels)
        staged += int64_t(cfg.rounds) * t.ah * t.aw * cfg.elemBytes;
    EXPECT_EQ(l1_written, staged);
}

TEST_P(SocPropertySweep, UtilizationBoundedUnderContention)
{
    soc::SocConfig cfg = config(GetParam());
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildSocModule(ctx, cfg);
    sim::Simulator s;
    auto rep = s.simulate(module.get());

    uint64_t mac_busy = 0;
    int64_t pes = 0;
    for (const auto &p : rep.processors) {
        EXPECT_GE(p.utilization, 0.0) << p.name;
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
        if (p.kind == "MAC") {
            mac_busy += p.busyCycles;
            ++pes;
        }
    }
    // Aggregate MAC occupancy can never exceed PEs x wall-clock.
    EXPECT_LE(mac_busy, uint64_t(pes) * rep.cycles);
}

TEST_P(SocPropertySweep, ArbitrationDeterministicAcrossRunsAndSessions)
{
    soc::SocConfig cfg = config(GetParam());
    auto fresh = [&] {
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = soc::buildSocModule(ctx, cfg);
        sim::Simulator s;
        return s.simulate(module.get());
    };
    auto r1 = fresh();
    auto r2 = fresh();
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.eventsExecuted, r2.eventsExecuted);
    EXPECT_EQ(r1.opsExecuted, r2.opsExecuted);

    // Session reuse must replay the same arbitration decisions:
    // identical cycles, traffic, and per-processor busy time on every
    // rerun of the pinned module.
    sim::Session session;
    session.rebuild(
        [&](ir::Context &ctx) { return soc::buildSocModule(ctx, cfg); });
    for (int run = 0; run < 3; ++run) {
        auto rep = session.run();
        EXPECT_EQ(rep.cycles, r1.cycles) << "run " << run;
        ASSERT_EQ(rep.connections.size(), r1.connections.size());
        for (size_t i = 0; i < rep.connections.size(); ++i) {
            EXPECT_EQ(rep.connections[i].readBytes,
                      r1.connections[i].readBytes);
            EXPECT_EQ(rep.connections[i].writeBytes,
                      r1.connections[i].writeBytes);
        }
        ASSERT_EQ(rep.processors.size(), r1.processors.size());
        for (size_t i = 0; i < rep.processors.size(); ++i)
            EXPECT_EQ(rep.processors[i].busyCycles,
                      r1.processors[i].busyCycles)
                << rep.processors[i].name;
    }
    EXPECT_EQ(session.runsCompleted(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Variants, SocPropertySweep,
                         ::testing::Values(0, 1, 2, 3));

TEST(FirMonotonicity, MoreBandwidthNeverSlows)
{
    uint64_t prev = ~0ull;
    for (int64_t bw : {2, 4, 8, 16}) {
        aie::FirConfig cfg;
        cfg.cores = 4;
        cfg.streamBandwidth = bw;
        cfg.samples = 128;
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = aie::buildFirModule(ctx, cfg);
        sim::Simulator s;
        uint64_t cycles = s.simulate(module.get()).cycles;
        EXPECT_LE(cycles, prev) << "bw=" << bw;
        prev = cycles;
    }
}

} // namespace
