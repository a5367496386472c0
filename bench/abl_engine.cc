/**
 * @file
 * Ablation benches for design choices DESIGN.md calls out:
 *  1. SRAM banking: sweeping bank count on an OS-dataflow array shows
 *     the engine's contention model adding real stalls (cycles rise
 *     above the analytic bound when ports run out).
 *  2. Connection type: Streaming vs Window on concurrent DMA transfers.
 *  3. Event granularity: cost of simulating per-step launches (events/s
 *     throughput of the engine).
 *
 * Takes the shared harness options (bench_util.hh): --backend picks the
 * engine, and --no-wall drops the wall-clock figures of ablation 3 so
 * the output compares byte-identically across runs and backends.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "systolic/generator.hh"

using namespace eq;

namespace {

/** Re-emit the systolic model with an explicit SRAM bank count. */
uint64_t
cyclesWithBanks(const sim::EngineOptions &opts, const scalesim::Config &cfg,
                unsigned banks)
{
    // The generator sizes banks for zero contention; rebuild its module
    // and patch the SRAM create op before simulating.
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);
    module->walk([&](ir::Operation *op) {
        if (op->name() == equeue::CreateMemOp::opName &&
            op->strAttr("kind") == "SRAM")
            op->setAttr("banks", ir::Attribute::integer(banks));
    });
    sim::Simulator s(opts);
    return s.simulate(module.get()).cycles;
}

void
windowVsStreaming(const sim::EngineOptions &opts)
{
    // One reader and one writer share a link: a Streaming connection
    // carries both directions concurrently; a Window connection locks
    // exclusively (§III-A), doubling the elapsed time.
    for (const char *kind : {"Streaming", "Window"}) {
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = ir::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
        auto mem = b.create<equeue::CreateMemOp>(
            std::string("SRAM"), std::vector<int64_t>{4096}, 32u, 64u);
        auto conn = b.create<equeue::CreateConnectionOp>(
            std::string(kind), int64_t{8});
        auto buf = b.create<equeue::AllocOp>(
            mem->result(0), std::vector<int64_t>{64}, 32u);
        auto start = b.create<equeue::ControlStartOp>();
        std::vector<ir::Value> dones;
        for (int i = 0; i < 2; ++i) {
            bool reader = i == 0;
            auto proc =
                b.create<equeue::CreateProcOp>(std::string("MAC"));
            auto lp = b.create<equeue::LaunchOp>(
                std::vector<ir::Value>{start->result(0)},
                proc->result(0),
                std::vector<ir::Value>{buf->result(0), conn->result(0)},
                std::vector<ir::Type>{});
            {
                ir::OpBuilder::InsertionGuard g(b);
                equeue::LaunchOp l(lp.op());
                b.setInsertionPointToEnd(&l.body());
                if (reader) {
                    b.create<equeue::ReadOp>(l.body().argument(0),
                                             l.body().argument(1),
                                             std::vector<ir::Value>{});
                } else {
                    auto data = b.create<equeue::ReadOp>(
                        l.body().argument(0), ir::Value(),
                        std::vector<ir::Value>{});
                    b.create<equeue::WriteOp>(data->result(0),
                                              l.body().argument(0),
                                              l.body().argument(1),
                                              std::vector<ir::Value>{});
                }
                b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
            }
            dones.push_back(lp->result(0));
        }
        b.create<equeue::AwaitOp>(dones);
        sim::Simulator s(opts);
        auto rep = s.simulate(module.get());
        std::printf("  conn=%-10s concurrent 256B read + 256B write "
                    "@8B/cyc: %llu cycles\n",
                    kind, static_cast<unsigned long long>(rep.cycles));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::HarnessArgs::parse(argc, argv,
                                          {"--backend", "--no-wall"});
    const sim::EngineOptions opts = args.flags.engine;
    std::printf("# Ablation 1: SRAM banks vs cycles (OS dataflow, 4x4 "
                "array, H=W=8, F=C=2, N=4)\n");
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 4;
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 4;
    cfg.fh = cfg.fw = 2;
    cfg.dataflow = scalesim::Dataflow::OS;
    uint64_t analytic = scalesim::simulate(cfg).cycles;
    for (unsigned banks : {1u, 2u, 4u, 8u, 16u}) {
        uint64_t cycles = cyclesWithBanks(opts, cfg, banks);
        std::printf("  banks=%-3u cycles=%-8llu analytic=%-8llu "
                    "contention_overhead=%.1f%%\n",
                    banks, static_cast<unsigned long long>(cycles),
                    static_cast<unsigned long long>(analytic),
                    100.0 * (double(cycles) - double(analytic)) /
                        double(analytic));
    }

    std::printf("# Ablation 2: Window locking vs Streaming channels\n");
    windowVsStreaming(opts);

    std::printf("# Ablation 3: engine event throughput\n");
    {
        auto t0 = std::chrono::steady_clock::now();
        sim::Session session(opts);
        session.rebuild([&](ir::Context &ctx) {
            return systolic::buildSystolicModule(ctx, cfg);
        });
        const sim::SimReport report = session.run();
        auto t1 = std::chrono::steady_clock::now();
        const auto events = report.eventsExecuted;
        const auto ops = report.opsExecuted;
        std::printf("  events=%llu ops=%llu",
                    static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(ops));
        if (!args.noWall) {
            double secs = std::chrono::duration<double>(t1 - t0).count();
            std::printf(" wall=%.4fs -> %.0f events/s, %.0f ops/s", secs,
                        events / secs, ops / secs);
        }
        std::printf("\n");
    }
    return 0;
}
