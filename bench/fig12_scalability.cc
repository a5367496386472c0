/**
 * @file
 * Fig. 12a-e: scalability of the simulator across the paper's
 * configuration space: Ah in {2,4,8,16,32} with Aw = 64/Ah, H = W in
 * {2..32}, Fh = Fw = C in {1,2,4}, N in {1..32}, all three dataflows
 * (4,050 points in the paper).
 *
 * The sweep runs through serve::runLocalSweepDurable (bench::runSweep):
 * points spread across worker threads sharing a serve::ProgramCache
 * with one sim::Session per thread, so the full grid (EQ_FULL_SWEEP=1)
 * is minutes-fast on a multicore host instead of an opt-in marathon.
 * Rows are ordered by point index — byte-identical for any thread
 * count (EQ_SWEEP_THREADS or --threads N). The key function holds the
 * figure's rule Aw = 64/Ah, C = Fh, so journal and cache rows are
 * keyed on the configs actually simulated.
 *
 * Columns: simulated cycles (x-axis of every subplot), simulator
 * execution time (12a), SRAM peak write BW x portion (12b), and loop
 * iterations = ceil(D1/Ah)*ceil(D2/Aw) (12c-e). --csv/--json emit the
 * table for plotting.
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

    std::printf("# Fig 12: scalability sweep (%s; %u threads)\n",
                full ? "full grid" : "sampled; EQ_FULL_SWEEP=1 for all",
                args.threadsFor(grid.size()));

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
        args, spec, grid, schema,
        [](const sweep::Point &, serve::ProgramCache::Handle &handle)
            -> std::vector<sweep::Cell> {
            const scalesim::Config &cfg = handle.key().systolic;
            const sim::SimReport report = handle.run();
            const scalesim::Result ss = scalesim::simulate(cfg);
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
        },
        // The axes set df, Ah, H = W, Fh = Fw and N; the array keeps 64
        // PEs (Aw = 64/Ah) and the channel count follows the filter.
        [&spec](const sweep::Point &p) {
            serve::ModelKey key = spec.keyAt(p);
            key.systolic.aw = 64 / key.systolic.ah;
            key.systolic.c = key.systolic.fh;
            return key;
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
