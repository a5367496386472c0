/**
 * @file
 * Fig. 11a-d: metrics along the four lowering-pipeline stages (Linalg,
 * Affine, Reassign, Systolic) for a 4x4 PE array and convolutions
 * H = W in {4, 8, 16, 32}, Fh = Fw = 3, C = 3, N = 4, for WS/IS/OS.
 *
 * Columns: simulator execution time (11a), simulated cycles (11b),
 * average SRAM read/write bandwidth and register read/write bandwidth
 * (11c/11d), plus the generator-vs-pipeline systolic cycle gap the paper
 * quantifies in §VI-D (1.2% average, up to 2%).
 */

#include <cstdio>

#include "bench_util.hh"
#include "passes/pipeline.hh"
#include "systolic/generator.hh"

using namespace eq;
using passes::Stage;

namespace {

struct Row {
    double wall;
    uint64_t cycles;
    double sram_rd, sram_wr, reg_rd, reg_wr;
};

Row
runStage(Stage stage, const scalesim::Config &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = passes::buildConvAtStage(ctx, stage, cfg);
    sim::Simulator s;
    auto rep = s.simulate(module.get());
    Row row{};
    row.wall = rep.wallSeconds;
    row.cycles = rep.cycles;
    double cyc = std::max<double>(1.0, double(rep.cycles));
    for (const auto &m : rep.memories) {
        if (m.kind == "SRAM") {
            row.sram_rd += m.bytesRead / cyc;
            row.sram_wr += m.bytesWritten / cyc;
        } else if (m.kind == "Register") {
            row.reg_rd += m.bytesRead / cyc;
            row.reg_wr += m.bytesWritten / cyc;
        }
    }
    return row;
}

} // namespace

int
main()
{
    std::printf("# Fig 11: metrics across lowering stages (4x4 array, "
                "Fh=Fw=3, C=3, N=4)\n");
    std::printf("%-4s %-4s %-9s %10s %12s %9s %9s %9s %9s %8s\n", "df",
                "H", "stage", "wall_s", "cycles", "sram_rd", "sram_wr",
                "reg_rd", "reg_wr", "gap%");

    for (auto df : {scalesim::Dataflow::WS, scalesim::Dataflow::IS,
                    scalesim::Dataflow::OS}) {
        for (int hw : {4, 8, 16, 32}) {
            scalesim::Config cfg;
            cfg.ah = cfg.aw = 4;
            cfg.c = 3;
            cfg.h = cfg.w = hw;
            cfg.n = 4;
            cfg.fh = cfg.fw = 3;
            cfg.dataflow = df;
            if (cfg.h < cfg.fh)
                continue;
            for (Stage stage : {Stage::Linalg, Stage::Affine,
                                Stage::Reassign, Stage::Systolic}) {
                Row row = runStage(stage, cfg);
                double gap = 0.0;
                if (stage == Stage::Systolic) {
                    uint64_t gen = systolic::expectedCycles(cfg);
                    gap = 100.0 * double(gen - row.cycles) / double(gen);
                }
                std::printf(
                    "%-4s %-4d %-9s %10.4f %12llu %9.3f %9.3f %9.3f "
                    "%9.3f %8.2f\n",
                    scalesim::dataflowName(df).c_str(), hw,
                    passes::stageName(stage).c_str(), row.wall,
                    static_cast<unsigned long long>(row.cycles),
                    row.sram_rd, row.sram_wr, row.reg_rd, row.reg_wr,
                    gap);
            }
        }
    }
    std::printf("# paper shape: runtime falls Linalg->Affine and "
                "collapses at Systolic;\n"
                "# register BW appears at Reassign; SRAM BW shifts "
                "along the stages;\n"
                "# systolic generator-vs-pipeline gap is the unmodeled "
                "cool-down.\n");
    return 0;
}
