/**
 * @file
 * google-benchmark microbenchmarks of the engine's primitives: module
 * construction, event dispatch, block interpretation, and full systolic
 * simulations at several sizes. These quantify the constant factors
 * behind Fig. 12a's execution-time scaling.
 *
 * Every engine benchmark names its backend explicitly (in the
 * benchmark name too), so a change of the EQ_SIM_BACKEND default can
 * never silently move a series from one backend to another.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include "bench_util.hh"
#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "serve/cache.hh"
#include "serve/models.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

using namespace eq;

namespace {

void
BM_BuildSystolicModule(benchmark::State &state)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = static_cast<int>(state.range(0));
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 4;
    cfg.fh = cfg.fw = 2;
    for (auto _ : state) {
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = systolic::buildSystolicModule(ctx, cfg);
        benchmark::DoNotOptimize(module.get());
    }
}
BENCHMARK(BM_BuildSystolicModule)->Arg(2)->Arg(4)->Arg(8);

void
BM_ModuleBuildTeardown(benchmark::State &state)
{
    // IR storage cost on the path every cold sweep point and serve
    // cache miss takes: Session::rebuild drops the pinned module and
    // builds the next one in the session's reused Context. Each
    // iteration is one teardown plus one build of the same module.
    scalesim::Config cfg;
    cfg.ah = cfg.aw = static_cast<int>(state.range(0));
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 4;
    cfg.fh = cfg.fw = 2;
    auto build = [&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    };
    sim::Session session;
    session.rebuild(build);
    for (auto _ : state) {
        session.rebuild(build);
        benchmark::DoNotOptimize(session.module());
    }
}
BENCHMARK(BM_ModuleBuildTeardown)->Arg(4)->Arg(8)->Arg(16);

sim::EngineOptions
engineFor(sim::Backend backend)
{
    sim::EngineOptions opts;
    opts.backend = backend;
    return opts;
}

void
BM_SimulateSystolic(benchmark::State &state, sim::Backend backend)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 4;
    cfg.c = 2;
    cfg.h = cfg.w = static_cast<int>(state.range(0));
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    // A fresh session per run: construct, build, simulate.
    auto runOnce = [&] {
        sim::Session session(engineFor(backend));
        session.rebuild([&](ir::Context &ctx) {
            return systolic::buildSystolicModule(ctx, cfg);
        });
        return session.run();
    };
    for (auto _ : state) {
        auto rep = runOnce();
        benchmark::DoNotOptimize(rep.cycles);
    }
    state.counters["cycles"] = static_cast<double>(runOnce().cycles);
}
BENCHMARK_CAPTURE(BM_SimulateSystolic, compiled, sim::Backend::Compiled)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

void
BM_BatchSessionReuse(benchmark::State &state, sim::Backend backend)
{
    // Batched re-runs of one pinned module: amortizes module build,
    // value numbering, and the dispatch table (vs BM_SimulateSystolic,
    // which pays module construction + full setup per run).
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 4;
    cfg.c = 2;
    cfg.h = cfg.w = static_cast<int>(state.range(0));
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    sim::Session session(engineFor(backend));
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    });
    for (auto _ : state) {
        auto rep = session.run();
        benchmark::DoNotOptimize(rep.cycles);
    }
}
BENCHMARK_CAPTURE(BM_BatchSessionReuse, compiled, sim::Backend::Compiled)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

void
BM_CompiledVsInterp(benchmark::State &state, sim::Backend backend)
{
    // The headline backend comparison: batched re-runs of one pinned
    // systolic module, so module build, verification, numbering, and
    // (for the compiled backend) lowering are all amortized away and
    // the two legs measure pure execution — interp tree-walking vs the
    // pre-lowered micro-op stream. Single-thread wall time; cycle
    // counts and reports are identical between legs by construction.
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 4;
    cfg.c = 2;
    cfg.h = cfg.w = static_cast<int>(state.range(0));
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    sim::Session session(engineFor(backend));
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    });
    for (auto _ : state) {
        auto rep = session.run();
        benchmark::DoNotOptimize(rep.cycles);
    }
}
BENCHMARK_CAPTURE(BM_CompiledVsInterp, interp, sim::Backend::Interp)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_CompiledVsInterp, compiled, sim::Backend::Compiled)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

void
BM_FusedVsCompiled(benchmark::State &state)
{
    // Pure fused-stream execution: batched re-runs of one pinned 8x8
    // systolic module on the compiled backend, so lowering and fusion
    // are amortized by the session and the leg measures one dispatch
    // per fused PE-body group (plus the dead-tensor and
    // signature-lookup elimination fusion enables). The name and the
    // `fused` arm are kept from when an unfused compiled mode existed
    // to compare against, so the series stays continuous; ops vs
    // dispatches are surfaced in the counters.
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 8;
    cfg.c = 2;
    cfg.h = cfg.w = static_cast<int>(state.range(0));
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    sim::Session session(engineFor(sim::Backend::Compiled));
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    });
    uint64_t ops = 0, dispatches = 0;
    for (auto _ : state) {
        auto rep = session.run();
        ops = rep.opsExecuted;
        dispatches = rep.dispatchCount;
        benchmark::DoNotOptimize(rep.cycles);
    }
    state.counters["ops"] = static_cast<double>(ops);
    state.counters["dispatches"] = static_cast<double>(dispatches);
}
BENCHMARK(BM_FusedVsCompiled)
    ->Name("BM_FusedVsCompiled/fused")
    ->Arg(4)
    ->Arg(8);

void
BM_SoCContention(benchmark::State &state, sim::Backend backend)
{
    // Multi-accelerator SoC with a shared bus/DMA: batched re-runs of
    // one pinned module, so the legs measure the engine's contention
    // machinery — connection-channel arbitration, DMA FIFO queueing,
    // SRAM bank occupancy, and wide awaits across tiles. The arg is
    // the bus bandwidth in bytes/cycle: 1 is bandwidth-starved (heavy
    // arbitration traffic), 8 is the balanced design point. Both
    // backends run it: scripts/soc_dispatch_summary.py checks that they
    // agree on cycles and ops and that fusion (connection-carrying
    // reads/writes included) cuts the compiled leg's dispatches.
    soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
    cfg.busBytesPerCycle = state.range(0);
    sim::Session session(engineFor(backend));
    session.rebuild(
        [&](ir::Context &ctx) { return soc::buildSocModule(ctx, cfg); });
    uint64_t cycles = 0, ops = 0, dispatches = 0;
    for (auto _ : state) {
        auto rep = session.run();
        cycles = rep.cycles;
        ops = rep.opsExecuted;
        dispatches = rep.dispatchCount;
        benchmark::DoNotOptimize(rep.cycles);
    }
    state.counters["cycles"] = static_cast<double>(cycles);
    state.counters["ops"] = static_cast<double>(ops);
    state.counters["dispatches"] = static_cast<double>(dispatches);
}
BENCHMARK_CAPTURE(BM_SoCContention, interp, sim::Backend::Interp)
    ->Arg(1)
    ->Arg(8);
BENCHMARK_CAPTURE(BM_SoCContention, compiled, sim::Backend::Compiled)
    ->Arg(1)
    ->Arg(8);

void
BM_CompileModule(benchmark::State &state)
{
    // Compilation cost alone (value numbering + lowering + fusion of
    // every region, from scratch each iteration): quantifies what a
    // Session's first run pays and its later runs amortize, so
    // the amortization claim is measured, not asserted. The arg is the
    // PE array edge: every PE is one launch body, but bodies of one
    // shape share a program, so the programs counter stays small while
    // the number of bodies numbered and fingerprinted grows.
    scalesim::Config cfg;
    cfg.ah = cfg.aw = static_cast<int>(state.range(0));
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);
    sim::Simulator s(engineFor(sim::Backend::Compiled));
    sim::PrecompileStats stats;
    for (auto _ : state) {
        stats = s.precompile(module.get());
        benchmark::DoNotOptimize(stats.microOps);
    }
    state.counters["microops"] = static_cast<double>(stats.microOps);
    state.counters["programs"] = static_cast<double>(stats.programs);
}
BENCHMARK(BM_CompileModule)->Arg(4)->Arg(8)->Arg(16);

void
BM_ScaleSimAnalytic(benchmark::State &state)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 4;
    cfg.c = 2;
    cfg.h = cfg.w = static_cast<int>(state.range(0));
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    for (auto _ : state) {
        auto r = scalesim::simulate(cfg);
        benchmark::DoNotOptimize(r.cycles);
    }
}
BENCHMARK(BM_ScaleSimAnalytic)->Arg(4)->Arg(8)->Arg(16);

void
BM_OpIdIntern(benchmark::State &state)
{
    // Interning + cached per-class id resolution: the constant factor
    // behind every pass pattern-match and dispatch-table build.
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctx.internOpName("equeue.launch"));
        benchmark::DoNotOptimize(equeue::ReadOp::id(ctx));
        benchmark::DoNotOptimize(arith::AddIOp::id(ctx));
    }
}
BENCHMARK(BM_OpIdIntern);

void
BM_InterpLoopNest(benchmark::State &state)
{
    // Pure interpreter throughput: an N x N affine loop nest of scalar
    // arithmetic on one core — every iteration exercises table
    // dispatch, the dense value environment, and the cost table with
    // no event-queue traffic.
    const int n = static_cast<int>(state.range(0));
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    auto proc = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b.create<equeue::ControlStartOp>();
    auto launch = b.create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(b);
        equeue::LaunchOp l(launch.op());
        b.setInsertionPointToEnd(&l.body());
        auto outer = b.create<affine::ForOp>(int64_t{0}, int64_t{n},
                                             int64_t{1});
        {
            ir::OpBuilder::InsertionGuard g2(b);
            affine::ForOp of(outer.op());
            b.setInsertionPointToEnd(&of.body());
            auto inner = b.create<affine::ForOp>(int64_t{0}, int64_t{n},
                                                 int64_t{1});
            {
                ir::OpBuilder::InsertionGuard g3(b);
                affine::ForOp inf(inner.op());
                b.setInsertionPointToEnd(&inf.body());
                auto sum = b.create<arith::AddIOp>(of.inductionVar(),
                                                   inf.inductionVar());
                b.create<arith::MulIOp>(sum->result(0), sum->result(0));
                b.create<affine::YieldOp>(std::vector<ir::Value>{});
            }
            b.create<affine::YieldOp>(std::vector<ir::Value>{});
        }
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});

    sim::Simulator s(engineFor(sim::Backend::Interp));
    uint64_t ops = 0;
    for (auto _ : state) {
        auto rep = s.simulate(module.get());
        ops = rep.opsExecuted;
        benchmark::DoNotOptimize(rep.cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(ops));
}
BENCHMARK(BM_InterpLoopNest)->Arg(32)->Arg(128);

void
BM_EventDispatch(benchmark::State &state, sim::Backend backend)
{
    // N chained 1-op launches on one processor: measures per-event cost.
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = ir::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
        auto proc = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
        auto start = b.create<equeue::ControlStartOp>();
        ir::Value dep = start->result(0);
        for (int i = 0; i < n; ++i) {
            auto launch = b.create<equeue::LaunchOp>(
                std::vector<ir::Value>{dep}, proc->result(0),
                std::vector<ir::Value>{}, std::vector<ir::Type>{});
            {
                ir::OpBuilder::InsertionGuard g(b);
                equeue::LaunchOp l(launch.op());
                b.setInsertionPointToEnd(&l.body());
                auto c =
                    b.create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
                b.create<arith::AddIOp>(c->result(0), c->result(0));
                b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
            }
            dep = launch->result(0);
        }
        b.create<equeue::AwaitOp>(std::vector<ir::Value>{dep});
        state.ResumeTiming();
        sim::Simulator s(engineFor(backend));
        auto rep = s.simulate(module.get());
        benchmark::DoNotOptimize(rep.cycles);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_EventDispatch, compiled, sim::Backend::Compiled)
    ->Arg(100)
    ->Arg(1000);

void
BM_LaunchIssue(benchmark::State &state, sim::Backend backend)
{
    // Launch-dense microkernel: N chained 1-op launches on one
    // processor, module built ONCE and pinned in a Session so
    // every iteration measures pure issue-side machinery — launch
    // enqueue, env acquisition (the pool's hottest path), the
    // same-time FIFO, and completion wakeups — with no IR-construction
    // noise (BM_EventDispatch rebuilds the module per iteration and
    // measures cold per-event cost instead).
    const int n = static_cast<int>(state.range(0));
    sim::Session session(engineFor(backend));
    session.rebuild([n](ir::Context &ctx) {
        auto module = ir::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
        auto proc = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
        auto start = b.create<equeue::ControlStartOp>();
        ir::Value dep = start->result(0);
        for (int i = 0; i < n; ++i) {
            auto launch = b.create<equeue::LaunchOp>(
                std::vector<ir::Value>{dep}, proc->result(0),
                std::vector<ir::Value>{}, std::vector<ir::Type>{});
            {
                ir::OpBuilder::InsertionGuard g(b);
                equeue::LaunchOp l(launch.op());
                b.setInsertionPointToEnd(&l.body());
                auto c =
                    b.create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
                b.create<arith::AddIOp>(c->result(0), c->result(0));
                b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
            }
            dep = launch->result(0);
        }
        b.create<equeue::AwaitOp>(std::vector<ir::Value>{dep});
        return module;
    });
    for (auto _ : state) {
        auto rep = session.run();
        benchmark::DoNotOptimize(rep.cycles);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_LaunchIssue, compiled, sim::Backend::Compiled)
    ->Arg(256)
    ->Arg(1024);

void
BM_ServeWarmVsCold(benchmark::State &state, bool warm)
{
    // The serving daemon's economics in one number pair: a cold
    // request pays module construction + verify + compile before its
    // first simulated cycle (fresh ProgramCache every iteration); a
    // warm request starts simulating immediately off the
    // Session-pinned entry. The ratio is the per-request win of
    // the cross-request program cache.
    serve::ModelKey key = serve::defaultKey(serve::ModelKind::Systolic);
    key.systolic.ah = key.systolic.aw = 8;

    const sim::EngineOptions engine = engineFor(sim::Backend::Compiled);
    serve::ProgramCache primed(4, engine);
    if (warm)
        primed.acquire(key).run(); // compile once, outside the loop
    for (auto _ : state) {
        if (warm) {
            auto rep = primed.acquire(key).run();
            benchmark::DoNotOptimize(rep.cycles);
        } else {
            serve::ProgramCache cache(4, engine);
            auto rep = cache.acquire(key).run();
            benchmark::DoNotOptimize(rep.cycles);
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ServeWarmVsCold, compiled_cold, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ServeWarmVsCold, compiled_warm, true)
    ->Unit(benchmark::kMicrosecond);

void
BM_SweepResume(benchmark::State &state, bool warm)
{
    // The crash-safe sweep layer's economics: a cold sweep simulates
    // every grid point; a warm one finds them all in the content-keyed
    // result cache and only replays rows. The ratio is the per-re-plot
    // win of --cache after nothing (or little) changed.
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes = {{"ah", {2, 4, 8}}, {"aw", {2, 4, 8}}};

    const sim::EngineOptions engine = engineFor(sim::Backend::Compiled);
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();
    const sweep::RowLogHeader identity = sweep::gridIdentity(
        points, spec.schema(), spec.saltString(), engine);

    char dirTemplate[] = "/tmp/eqsim_bm_sweep_XXXXXX";
    const char *dir = mkdtemp(dirTemplate);
    sweep::JournalOptions opts;
    if (warm && dir) {
        opts.cachePath = std::string(dir) + "/cache.ndjson";
        sweep::Table primer{spec.schema()};
        sweep::ResumeStats st;
        std::string err;
        serve::runLocalSweepDurable(spec, points, 1, engine, opts,
                                    identity, &primer, &st, &err);
    }
    for (auto _ : state) {
        sweep::Table table{spec.schema()};
        sweep::ResumeStats st;
        std::string err;
        if (warm) {
            serve::runLocalSweepDurable(spec, points, 1, engine, opts,
                                        identity, &table, &st, &err);
        } else {
            table = serve::runLocalSweep(spec, 1, engine);
        }
        benchmark::DoNotOptimize(table.numRows());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(points.size()));
    if (dir) {
        std::remove((std::string(dir) + "/cache.ndjson").c_str());
        ::rmdir(dir);
    }
}
BENCHMARK_CAPTURE(BM_SweepResume, compiled_cold, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SweepResume, compiled_warm, true)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // The stock library_build_type context key records how the
    // benchmark *library* was compiled (distro packages ship debug
    // builds), not how this binary was. Stamp the binary's own build
    // mode so scripts/check_bench_trend.py can refuse to gate on
    // unoptimized timings.
#ifdef NDEBUG
    benchmark::AddCustomContext("eqsim_build_type", "release");
#else
    benchmark::AddCustomContext("eqsim_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
