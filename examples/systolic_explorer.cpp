/**
 * @file
 * Design-space exploration of systolic convolution accelerators
 * (Section VI): pick an array shape and convolution on the command
 * line, simulate all three dataflows with the EQueue engine through the
 * sweep subsystem (spread across workers, results in a typed table),
 * and cross-check against the SCALE-Sim analytic baseline.
 *
 *   $ ./systolic_explorer [Ah Aw H N Fh C]   (defaults: 4 4 16 4 3 3)
 *
 * Each dimension is an integer >= 1 and the filter fits the ifmap
 * (SweepSpec::validate); any other shape is a structured usage error
 * (exit 2). The harness flags apply (bench_util.hh): --threads,
 * --backend, --journal, --cache, --fsync, --csv, --json and --no-wall.
 */

#include <cstdio>

#include "base/stringutil.hh"
#include "bench_util.hh"

using namespace eq;

int
main(int argc, char **argv)
{
    auto args = bench::HarnessArgs::parse(argc, argv);
    const std::vector<std::string> &pos = args.positional;
    int dims[] = {4, 4, 16, 4, 3, 3}; // Ah Aw H N Fh C
    bool ok = pos.size() <= std::size(dims);
    for (size_t i = 0; ok && i < pos.size(); ++i)
        ok = parseInt(pos[i], 1, &dims[i]);
    serve::SweepSpec spec;
    scalesim::Config &base = spec.base.systolic;
    base.ah = dims[0];
    base.aw = dims[1];
    base.h = base.w = dims[2];
    base.n = dims[3];
    base.fh = base.fw = dims[4];
    base.c = dims[5];
    spec.axes = {{"df", {0, 1, 2}}};
    std::string err = "shape is [Ah Aw H N Fh C], integers >= 1";
    if (!ok || !spec.validate(&err))
        return sweep::printError(args.program, ErrorCode::Usage, err);

    std::printf("array %dx%d, ifmap %dx%dx%d, %d filters of %dx%dx%d\n",
                base.ah, base.aw, base.c, base.h, base.w, base.n,
                base.fh, base.fw, base.c);

    std::vector<sweep::Column> schema{
        {"df", sweep::ValueKind::Str, 4, 0},
        {"eq_cyc", sweep::ValueKind::Int, 10, 0},
        {"ss_cyc", sweep::ValueKind::Int, 10, 0},
        {"folds", sweep::ValueKind::Int, 8, 0},
        {"sram_rd_B", sweep::ValueKind::Int, 12, 0},
        {"sram_wr_B", sweep::ValueKind::Int, 12, 0},
        {"util_pct", sweep::ValueKind::Real, 10, 1},
    };

    auto table = bench::runSweep(
        args, spec, spec.grid(), schema,
        [](const sweep::Point &, serve::ProgramCache::Handle &handle)
            -> std::vector<sweep::Cell> {
            const scalesim::Config &cfg = handle.key().systolic;
            const sim::SimReport report = handle.run();
            auto ss = scalesim::simulate(cfg);
            const serve::SramTraffic sram = serve::sramTraffic(report);

            double mac_util = 0.0;
            int macs = 0;
            for (const auto &pr : report.processors) {
                if (pr.kind == "MAC") {
                    mac_util += pr.utilization;
                    ++macs;
                }
            }
            return {scalesim::dataflowName(cfg.dataflow),
                    static_cast<int64_t>(report.cycles),
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
