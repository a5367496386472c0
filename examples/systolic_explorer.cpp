/**
 * @file
 * Design-space exploration of systolic convolution accelerators
 * (Section VI): pick an array shape and convolution on the command
 * line, simulate all three dataflows with the EQueue engine through the
 * sweep subsystem (sharded across workers, results in a typed table),
 * and cross-check against the SCALE-Sim analytic baseline.
 *
 *   $ ./systolic_explorer [Ah Aw H N Fh C] [--threads N]
 *                         [--csv F] [--json F]     (defaults: 4 4 16 4 3 3)
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"

using namespace eq;

int
main(int argc, char **argv)
{
    auto args = bench::HarnessArgs::parse(argc, argv);
    auto &pos = args.positional;
    auto posInt = [&](size_t i, int dflt) {
        return i < pos.size() ? std::atoi(pos[i].c_str()) : dflt;
    };
    scalesim::Config base;
    base.ah = posInt(0, 4);
    base.aw = posInt(1, 4);
    base.h = base.w = posInt(2, 16);
    base.n = posInt(3, 4);
    base.fh = base.fw = posInt(4, 3);
    base.c = posInt(5, 3);
    if (base.h < base.fh) {
        std::fprintf(stderr, "filter larger than ifmap\n");
        return 1;
    }

    std::printf("array %dx%d, ifmap %dx%dx%d, %d filters of %dx%dx%d\n",
                base.ah, base.aw, base.c, base.h, base.w, base.n,
                base.fh, base.fw, base.c);

    serve::SweepSpec spec;
    spec.base = serve::ModelKey::systolicKey(base);
    spec.axes = {{"df", {0, 1, 2}}};
    const sweep::Grid grid = spec.grid();

    std::vector<sweep::Column> schema{
        {"df", sweep::ValueKind::Str, 4, 0},
        {"eq_cyc", sweep::ValueKind::Int, 10, 0},
        {"ss_cyc", sweep::ValueKind::Int, 10, 0},
        {"folds", sweep::ValueKind::Int, 8, 0},
        {"sram_rd_B", sweep::ValueKind::Int, 12, 0},
        {"sram_wr_B", sweep::ValueKind::Int, 12, 0},
        {"util_pct", sweep::ValueKind::Real, 10, 1},
    };

    sweep::SweepRunner runner(args.runnerOptions());
    auto points = grid.points();
    serve::SweepWorkers workers(runner.threadsFor(points.size()),
                                args.engineOptions());

    auto table = runner.run(
        points, schema,
        [&](const sweep::Point &p, unsigned w) -> std::vector<sweep::Cell> {
            const serve::ModelKey key = spec.keyAt(p);
            const scalesim::Config &cfg = key.systolic;
            auto run = workers.run(w, key);
            auto ss = scalesim::simulate(cfg);
            const serve::SramTraffic sram = serve::sramTraffic(run.report);

            double mac_util = 0.0;
            int macs = 0;
            for (const auto &pr : run.report.processors) {
                if (pr.kind == "MAC") {
                    mac_util += pr.utilization;
                    ++macs;
                }
            }
            return {scalesim::dataflowName(cfg.dataflow),
                    static_cast<int64_t>(run.report.cycles),
                    static_cast<int64_t>(ss.cycles),
                    static_cast<int64_t>(ss.folds),
                    sram.readBytes,
                    sram.writeBytes,
                    macs ? 100.0 * mac_util / macs : 0.0};
        });

    args.emit(table);
    std::printf("pick the dataflow minimizing ceil(D1/Ah)*ceil(D2/Aw) "
                "(Section VI-E).\n");
    return 0;
}
