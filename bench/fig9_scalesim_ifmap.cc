/**
 * @file
 * Fig. 9a/9b: EQueue vs SCALE-Sim on a 4x4 WS systolic array, sweeping
 * the ifmap size (2x2 .. 32x32) with fixed 2x2x3 weights. Reports
 * simulated cycles and average SRAM ofmap write bandwidth for both
 * simulators, plus wall-clock execution time (the §VI-C cost
 * comparison: SCALE-Sim <= 1.1 s vs EQueue <= 7.2 s in the paper):
 * the engine build and run and the SCALE-Sim call, reported
 * separately (bench::fig9Schema).
 */

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

    auto table = bench::runSweep(
        args, spec, spec.grid(), bench::fig9Schema("ifmap"),
        [](const sweep::Point &p, serve::ProgramCache::Handle &handle) {
            return bench::fig9Row(p.at("hw"), handle);
        });

    args.emit(table);
    std::printf("# paper: EQueue matches SCALE-Sim on both metrics; the\n"
                "# event-queue simulator pays a constant-factor wall-time "
                "cost.\n");
    return 0;
}
