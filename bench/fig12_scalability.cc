/**
 * @file
 * Fig. 12a-e: scalability of the simulator across the paper's
 * configuration space: Ah in {2,4,8,16,32} with Aw = 64/Ah, H = W in
 * {2..32}, Fh = Fw = C in {1,2,4}, N in {1..32}, all three dataflows
 * (4,050 points in the paper).
 *
 * The sweep runs through the SweepRunner subsystem: points shard across
 * worker threads sharing a serve::ProgramCache with one sim::Session
 * per thread, so the full grid (EQ_FULL_SWEEP=1) is minutes-fast on a
 * multicore host instead of an opt-in marathon. Rows are ordered by
 * point index — byte-identical for any thread count (EQ_SWEEP_THREADS
 * or --threads N).
 *
 * Columns: simulated cycles (x-axis of every subplot), simulator
 * execution time (12a), SRAM peak write BW x portion (12b), and loop
 * iterations = ceil(D1/Ah)*ceil(D2/Aw) (12c-e). --csv/--json emit the
 * table for plotting.
 *
 * The analytic columns are batched: one scalesim::simulateBatch pass
 * over the whole grid before the sweep starts (ROADMAP "Sweep-aware
 * scalesim fusion"), so sweep workers spend their time on the engine
 * only.
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
    spec.axes = {
        {"df", {0, 1, 2}},
        {"ah", full ? std::vector<int64_t>{2, 4, 8, 16, 32}
                    : std::vector<int64_t>{2, 8, 32}},
        {"hw", full ? std::vector<int64_t>{2, 4, 8, 16, 32}
                    : std::vector<int64_t>{4, 16}},
        {"f", full ? std::vector<int64_t>{1, 2, 4}
                   : std::vector<int64_t>{1, 2}},
        {"n", full ? std::vector<int64_t>{1, 2, 4, 8, 16, 32}
                   : std::vector<int64_t>{2, 8}},
    };
    sweep::Grid grid = spec.grid();
    grid.filter([](const sweep::Point &p) {
        // Filter must fit inside the ifmap.
        return p.at("hw") >= p.at("f");
    });

    sweep::SweepRunner runner({args.flags.threads});
    auto points = grid.points();
    serve::ProgramCache cache(runner.threadsFor(points.size()),
                              args.flags.engine);

    std::printf("# Fig 12: scalability sweep (%s; %u threads)\n",
                full ? "full grid" : "sampled; EQ_FULL_SWEEP=1 for all",
                runner.threadsFor(points.size()));

    // The axes set df, Ah, H = W, Fh = Fw and N; the array keeps 64
    // PEs (Aw = 64/Ah) and the channel count follows the filter.
    std::vector<serve::ModelKey> keys;
    keys.reserve(points.size());
    for (const auto &p : points) {
        keys.push_back(spec.keyAt(p));
        scalesim::Config &cfg = keys.back().systolic;
        cfg.aw = 64 / cfg.ah;
        cfg.c = cfg.fh;
    }

    // Fused analytic pass over the full grid, indexed by dense point
    // index; the sweep below never calls the analytic model.
    std::vector<scalesim::Config> cfgs;
    cfgs.reserve(points.size());
    for (const auto &key : keys)
        cfgs.push_back(key.systolic);
    auto ss_results = scalesim::simulateBatch(cfgs);

    std::vector<sweep::Column> schema{
        {"df", sweep::ValueKind::Str, 4, 0},
        {"Ah", sweep::ValueKind::Int, 3, 0},
        {"Aw", sweep::ValueKind::Int, 3, 0},
        {"HW", sweep::ValueKind::Int, 3, 0},
        {"F", sweep::ValueKind::Int, 3, 0},
        {"N", sweep::ValueKind::Int, 3, 0},
        {"cycles", sweep::ValueKind::Int, 12, 0},
        {"wall_s", sweep::ValueKind::Real, 10, 4},
        {"peakWBWxPort", sweep::ValueKind::Real, 14, 3},
        {"loopIters", sweep::ValueKind::Int, 10, 0},
    };

    auto table = bench::runSweep(
        args, runner, points, schema,
        full ? "fig12 full" : "fig12 sampled",
        [&](const sweep::Point &p, unsigned) -> std::vector<sweep::Cell> {
            const scalesim::Config &cfg = cfgs[p.index()];
            const sim::SimReport report = cache.acquire(keys[p.index()]).run();
            const auto &ss = ss_results[p.index()];
            return {scalesim::dataflowName(cfg.dataflow),
                    cfg.ah,
                    cfg.aw,
                    cfg.h,
                    cfg.fh,
                    cfg.n,
                    static_cast<int64_t>(report.cycles),
                    report.wallSeconds,
                    ss.peakWriteBwTimesPortion,
                    static_cast<int64_t>(ss.loopIterations)};
        });

    args.emit(table);
    std::printf("# %zu configurations simulated", table.numRows());
    if (!args.noWall) {
        auto wall = table.summarize("wall_s");
        std::printf("; engine time total %.3fs (mean %.4fs/point)",
                    wall.sum, wall.mean);
    }
    std::printf("; execution time scales\n"
                "# with cycle count (12a); loop iterations follow "
                "ceil(D1/Ah)*ceil(D2/Aw) (12c-e).\n");
    return 0;
}
