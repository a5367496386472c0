/**
 * @file
 * SoC shared-bus contention figure: sweep tile count, DMA pool size,
 * and bus bandwidth over the multi-accelerator SoC family and chart
 * how wall-clock cycles and peak bus occupancy respond — the
 * paper-style "how much does the interconnect cost" curve for systems
 * bigger than one accelerator.
 *
 * Runs on the SweepRunner subsystem: points shard across worker
 * threads sharing a serve::ProgramCache (one sim::Session per thread,
 * rebuilt only when a point's ModelKey is not cached), and each point's
 * config is the dual-shared-bus SoC with the axes applied through
 * serve::applyAxis — "tiles" is N alternating WS/OS 2x2 tiles on
 * 8 B/cyc private links. Rows are ordered by point index so the table is
 * byte-identical for any --threads value. Simulated columns are
 * backend-independent; pass --no-wall to drop the wall-clock column
 * when diffing across machines.
 *
 * Sampled by default; EQ_FULL_SWEEP=1 widens every axis.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace eq;

int
main(int argc, char **argv)
{
    auto args = bench::HarnessArgs::parse(argc, argv);
    const bool full = bench::fullSweepRequested();

    serve::SweepSpec spec;
    spec.base = serve::ModelKey::socKey(soc::SocConfig::dualSharedBus());
    spec.axes = {
        {"tiles", full ? std::vector<int64_t>{1, 2, 3, 4, 6, 8}
                       : std::vector<int64_t>{1, 2, 4}},
        {"dmas", full ? std::vector<int64_t>{1, 2, 4}
                      : std::vector<int64_t>{1, 2}},
        {"bus_bw", full ? std::vector<int64_t>{1, 2, 4, 8, 16, 32}
                        : std::vector<int64_t>{2, 8, 32}},
    };
    sweep::Grid grid = spec.grid();
    grid.filter([](const sweep::Point &p) {
        // A DMA pool larger than the tile count never arbitrates.
        return p.at("dmas") <= p.at("tiles");
    });

    sweep::SweepRunner runner(args.runnerOptions());
    auto points = grid.points();
    serve::ProgramCache cache(runner.threadsFor(points.size()),
                              args.engineOptions());

    std::printf("# SoC shared-bus contention sweep (%s; %u threads)\n",
                full ? "full grid" : "sampled; EQ_FULL_SWEEP=1 for all",
                runner.threadsFor(points.size()));

    std::vector<sweep::Column> schema{
        {"tiles", sweep::ValueKind::Int, 5, 0},
        {"dmas", sweep::ValueKind::Int, 4, 0},
        {"bus_bw", sweep::ValueKind::Int, 6, 0},
        {"cycles", sweep::ValueKind::Int, 10, 0},
        {"bus_rd_B", sweep::ValueKind::Int, 10, 0},
        {"bus_wr_B", sweep::ValueKind::Int, 10, 0},
        {"bus_peak", sweep::ValueKind::Real, 9, 3},
        {"wall_s", sweep::ValueKind::Real, 10, 4},
    };

    auto table = bench::runSweep(
        args, runner, points, schema,
        full ? "fig_soc_contention full" : "fig_soc_contention sampled",
        [&](const sweep::Point &p, unsigned) -> std::vector<sweep::Cell> {
            const sim::SimReport report = cache.acquire(spec.keyAt(p)).run();
            const serve::BusTraffic bus = serve::busTraffic(report);
            return {p.at("tiles"),
                    p.at("dmas"),
                    p.at("bus_bw"),
                    static_cast<int64_t>(report.cycles),
                    bus.readBytes,
                    bus.writeBytes,
                    bus.peakPortion,
                    report.wallSeconds};
        });

    args.emit(table);
    std::printf("# %zu SoC points simulated", table.numRows());
    if (!args.noWall) {
        auto wall = table.summarize("wall_s");
        std::printf("; engine time total %.3fs (mean %.4fs/point)",
                    wall.sum, wall.mean);
    }
    std::printf(".\n"
                "# Read the curve per tile count: cycles fall as bus_bw "
                "rises until compute bounds, and extra DMA engines only "
                "help while the bus has headroom.\n");
    return 0;
}
