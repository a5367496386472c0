/**
 * @file
 * Fig. 9c/9d: EQueue vs SCALE-Sim on a 4x4 WS systolic array with a
 * fixed 32x32 ifmap, sweeping the filter size (2x2 .. 32x32, C = 3).
 * Reports simulated cycles and average SRAM ofmap write bandwidth,
 * plus the wall time of the engine build, the engine run and the
 * SCALE-Sim call (bench::fig9Schema).
 *
 * Note on shape: cycles grow with the filter until the ofmap collapses
 * (Fh = H leaves a single output pixel), an artifact of the edge of the
 * mapping space; the paper's sweep stays left of that point.
 */

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

    auto table = bench::runSweep(
        args, spec, spec.grid(), bench::fig9Schema("weight"),
        [](const sweep::Point &p, serve::ProgramCache::Handle &handle) {
            return bench::fig9Row(p.at("f"), handle);
        });

    args.emit(table);
    return 0;
}
