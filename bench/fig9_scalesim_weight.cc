/**
 * @file
 * Fig. 9c/9d: EQueue vs SCALE-Sim on a 4x4 WS systolic array with a
 * fixed 32x32 ifmap, sweeping the filter size (2x2 .. 32x32, C = 3).
 * Reports simulated cycles and average SRAM ofmap write bandwidth.
 * Engine build and simulate time are reported separately (eq_build_s
 * is the program cache's rebuild, 0 when a point reused a program;
 * eq_wall_s is pure engine execution).
 *
 * Note on shape: cycles grow with the filter until the ofmap collapses
 * (Fh = H leaves a single output pixel), an artifact of the edge of the
 * mapping space; the paper's sweep stays left of that point.
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
    std::printf("# Fig 9c/9d: 4x4 WS array, ifmap fixed at 32x32, "
                "weights swept\n");

    serve::SweepSpec spec;
    scalesim::Config &base = spec.base.systolic;
    base.ah = base.aw = 4;
    base.c = 3;
    base.h = base.w = 32;
    base.n = 1;
    base.dataflow = scalesim::Dataflow::WS;
    spec.axes = {{"f", {2, 4, 8, 16, 32}}};
    const sweep::Grid grid = spec.grid();

    std::vector<sweep::Column> schema{
        {"weight", sweep::ValueKind::Str, 8, 0},
        {"eq_cycles", sweep::ValueKind::Int, 12, 0},
        {"ss_cycles", sweep::ValueKind::Int, 12, 0},
        {"eq_ofmap_wr_bw", sweep::ValueKind::Real, 16, 4},
        {"ss_ofmap_wr_bw", sweep::ValueKind::Real, 16, 4},
        {"eq_build_s", sweep::ValueKind::Real, 12, 4},
        {"eq_wall_s", sweep::ValueKind::Real, 12, 4},
        {"ss_wall_s", sweep::ValueKind::Real, 12, 6},
    };

    sweep::SweepRunner runner(args.runnerOptions());
    auto points = grid.points();
    serve::ProgramCache cache(runner.threadsFor(points.size()),
                              args.engineOptions());

    // Fused analytic pass (see fig9_scalesim_ifmap.cc).
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

    auto table = runner.run(
        points, schema,
        [&](const sweep::Point &p, unsigned) -> std::vector<sweep::Cell> {
            int f = static_cast<int>(p.at("f"));
            auto handle = cache.acquire(spec.keyAt(p));
            const sim::SimReport report = handle.run();
            const auto &ss = ss_results[p.index()];
            return {std::to_string(f) + "x" + std::to_string(f),
                    static_cast<int64_t>(report.cycles),
                    static_cast<int64_t>(ss.cycles),
                    bench::ofmapWriteBw(report),
                    ss.avgOfmapWriteBw,
                    handle.buildSeconds(),
                    report.wallSeconds,
                    ss_wall_each};
        });

    args.emit(table);
    return 0;
}
