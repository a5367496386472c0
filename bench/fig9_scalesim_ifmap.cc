/**
 * @file
 * Fig. 9a/9b: EQueue vs SCALE-Sim on a 4x4 WS systolic array, sweeping
 * the ifmap size (2x2 .. 32x32) with fixed 2x2x3 weights. Reports
 * simulated cycles and average SRAM ofmap write bandwidth for both
 * simulators, plus wall-clock execution time (the §VI-C cost
 * comparison: SCALE-Sim <= 1.1 s vs EQueue <= 7.2 s in the paper).
 * Engine build and simulate time are reported separately (eq_build_s
 * is the program cache's rebuild, 0 when a point reused a program;
 * eq_wall_s is pure engine execution).
 *
 * The analytic columns are batched: every point's SCALE-Sim result is
 * computed up front in one scalesim::simulateBatch pass, so the sweep
 * workers only run the engine; ss_wall_s is the batch's amortized
 * per-point cost.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace eq;
    auto args = bench::HarnessArgs::parse(argc, argv);
    std::printf("# Fig 9a/9b: 4x4 WS array, weights fixed at 2x2x3, "
                "ifmap swept\n");

    // Every swept ifmap already fits the fixed 2x2 filter (hw >= fh).
    serve::SweepSpec spec;
    scalesim::Config &base = spec.base.systolic;
    base.ah = base.aw = 4;
    base.c = 3;
    base.n = 1;
    base.fh = base.fw = 2;
    base.dataflow = scalesim::Dataflow::WS;
    spec.axes = {{"hw", {2, 4, 8, 16, 32}}};
    const sweep::Grid grid = spec.grid();

    std::vector<sweep::Column> schema{
        {"ifmap", sweep::ValueKind::Str, 8, 0},
        {"eq_cycles", sweep::ValueKind::Int, 12, 0},
        {"ss_cycles", sweep::ValueKind::Int, 12, 0},
        {"eq_ofmap_wr_bw", sweep::ValueKind::Real, 16, 4},
        {"ss_ofmap_wr_bw", sweep::ValueKind::Real, 16, 4},
        {"eq_build_s", sweep::ValueKind::Real, 12, 4},
        {"eq_wall_s", sweep::ValueKind::Real, 12, 4},
        {"ss_wall_s", sweep::ValueKind::Real, 12, 6},
    };

    sweep::SweepRunner runner({args.flags.threads});
    auto points = grid.points();
    serve::ProgramCache cache(runner.threadsFor(points.size()),
                              args.flags.engine);

    // Fused analytic pass: all SCALE-Sim columns, indexed by the dense
    // point index, computed before the sweep starts.
    std::vector<scalesim::Config> cfgs;
    cfgs.reserve(points.size());
    for (const auto &p : points)
        cfgs.push_back(spec.keyAt(p).systolic);
    auto t0 = std::chrono::steady_clock::now();
    auto ss_results = scalesim::simulateBatch(cfgs);
    double ss_wall_each =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count() /
        std::max<size_t>(1, points.size());

    auto table = bench::runSweep(
        args, runner, points, schema, "fig9_scalesim_ifmap",
        [&](const sweep::Point &p, unsigned) -> std::vector<sweep::Cell> {
            int hw = static_cast<int>(p.at("hw"));
            auto handle = cache.acquire(spec.keyAt(p));
            const sim::SimReport report = handle.run();
            const auto &ss = ss_results[p.index()];
            return {std::to_string(hw) + "x" + std::to_string(hw),
                    static_cast<int64_t>(report.cycles),
                    static_cast<int64_t>(ss.cycles),
                    bench::ofmapWriteBw(report),
                    ss.avgOfmapWriteBw,
                    handle.buildSeconds(),
                    report.wallSeconds,
                    ss_wall_each};
        });

    args.emit(table);
    std::printf("# paper: EQueue matches SCALE-Sim on both metrics; the\n"
                "# event-queue simulator pays a constant-factor wall-time "
                "cost.\n");
    return 0;
}
