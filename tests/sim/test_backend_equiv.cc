/**
 * @file
 * Backend equivalence: the compiled (always fused) backend must be
 * *observationally byte-identical* to the interpreter, its reference
 * oracle: same cycles, same event/op counts, same per-memory traffic,
 * per-connection bandwidth statistics, per-processor utilization, and
 * the same operation-level trace stream (times, durations, labels, and
 * record order) — across the golden-trace scenarios (FIR on AI
 * Engines, conv lowered through the full pass pipeline onto 4x4/8x8
 * WS/OS systolic arrays, the SoC scenarios). The only sanctioned
 * difference is SimReport::dispatchCount: equal to opsExecuted on the
 * interpreter, strictly lower on the compiled backend (the fusion
 * win).
 *
 * Also pins the backend-selection seam: EngineOptions::backend wins,
 * EQ_SIM_BACKEND resolves Backend::Auto, and the default is the
 * compiled backend.
 */

#include <cstdlib>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "aie/fir.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "passes/pipeline.hh"
#include "scalesim/scalesim.hh"
#include "sim/engine.hh"
#include "soc/soc.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

struct RunOutcome {
    sim::SimReport report;
    std::vector<std::string> trace; ///< one rendered line per event
};

/** The two backends of the equivalence matrix. */
using Mode = sim::Backend;

constexpr Mode kInterp = sim::Backend::Interp;
constexpr Mode kCompiled = sim::Backend::Compiled;

std::vector<std::string>
renderTrace(const sim::Trace &trace)
{
    std::vector<std::string> lines;
    lines.reserve(trace.events().size());
    for (const auto &ev : trace.events()) {
        std::ostringstream os;
        os << ev.ts << " " << ev.dur << " " << ev.cat << " " << ev.pid
           << " " << ev.tid << " " << ev.name;
        lines.push_back(os.str());
    }
    return lines;
}

void
expectOutcomesIdentical(const RunOutcome &interp,
                        const RunOutcome &compiled)
{
    const sim::SimReport &a = interp.report;
    const sim::SimReport &b = compiled.report;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.opsExecuted, b.opsExecuted);
    // dispatchCount is deliberately NOT compared here: it is the one
    // backend-dependent report field (see the matrix tests below).

    ASSERT_EQ(a.memories.size(), b.memories.size());
    for (size_t i = 0; i < a.memories.size(); ++i) {
        EXPECT_EQ(a.memories[i].name, b.memories[i].name);
        EXPECT_EQ(a.memories[i].kind, b.memories[i].kind);
        EXPECT_EQ(a.memories[i].bytesRead, b.memories[i].bytesRead);
        EXPECT_EQ(a.memories[i].bytesWritten,
                  b.memories[i].bytesWritten);
    }
    ASSERT_EQ(a.connections.size(), b.connections.size());
    for (size_t i = 0; i < a.connections.size(); ++i) {
        EXPECT_EQ(a.connections[i].name, b.connections[i].name);
        EXPECT_EQ(a.connections[i].readBytes,
                  b.connections[i].readBytes);
        EXPECT_EQ(a.connections[i].writeBytes,
                  b.connections[i].writeBytes);
        EXPECT_DOUBLE_EQ(a.connections[i].maxBw,
                         b.connections[i].maxBw);
        EXPECT_DOUBLE_EQ(a.connections[i].maxBwPortionRead,
                         b.connections[i].maxBwPortionRead);
        EXPECT_DOUBLE_EQ(a.connections[i].maxBwPortionWrite,
                         b.connections[i].maxBwPortionWrite);
    }
    ASSERT_EQ(a.processors.size(), b.processors.size());
    for (size_t i = 0; i < a.processors.size(); ++i) {
        EXPECT_EQ(a.processors[i].name, b.processors[i].name);
        EXPECT_EQ(a.processors[i].busyCycles,
                  b.processors[i].busyCycles);
        EXPECT_EQ(a.processors[i].opsExecuted,
                  b.processors[i].opsExecuted);
    }

    // The trace must match line for line, in recording order (a
    // stronger condition than the golden harness's ts-normalized
    // stream).
    ASSERT_EQ(interp.trace.size(), compiled.trace.size());
    for (size_t i = 0; i < interp.trace.size(); ++i)
        ASSERT_EQ(interp.trace[i], compiled.trace[i])
            << "first trace divergence at event " << i;
}

/** Assert the two-way matrix for one scenario: interp vs compiled
 *  outcomes line-identical, opsExecuted dispatch parity on the
 *  interpreter, and a strict dispatch-count drop on the compiled
 *  backend (the PE bodies must actually fuse). */
void
expectMatrix(const RunOutcome &interp, const RunOutcome &compiled)
{
    expectOutcomesIdentical(interp, compiled);
    EXPECT_EQ(interp.report.dispatchCount, interp.report.opsExecuted);
    EXPECT_LT(compiled.report.dispatchCount,
              compiled.report.opsExecuted);
}

RunOutcome
simulate(Mode mode, ir::Operation *module)
{
    sim::EngineOptions opts;
    opts.enableTrace = true;
    opts.backend = mode;
    sim::Simulator s(opts);
    RunOutcome out;
    out.report = s.simulate(module);
    out.trace = renderTrace(s.trace());
    return out;
}

RunOutcome
runFir(Mode mode, const aie::FirConfig &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = aie::buildFirModule(ctx, cfg);
    return simulate(mode, module.get());
}

RunOutcome
runArray(Mode mode, int array, scalesim::Dataflow df)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = array;
    cfg.dataflow = df;
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 8;
    cfg.fh = cfg.fw = 3;
    cfg.elemBytes = 4;

    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = passes::buildConvModule(ctx, cfg);
    std::string diag = passes::lowerConvModule(
        module.get(), passes::Stage::Systolic, cfg);
    EXPECT_TRUE(diag.empty()) << diag;

    return simulate(mode, module.get());
}

RunOutcome
runSoc(Mode mode, const soc::SocConfig &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildSocModule(ctx, cfg);
    return simulate(mode, module.get());
}

RunOutcome
runSocPipeline(Mode mode, const soc::PipelineConfig &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildPipelineModule(ctx, cfg);
    return simulate(mode, module.get());
}

TEST(BackendEquivTest, FirAieCase3)
{
    expectMatrix(runFir(kInterp, aie::FirConfig::case3()),
                 runFir(kCompiled, aie::FirConfig::case3()));
}

TEST(BackendEquivTest, FirAieCase4)
{
    expectMatrix(runFir(kInterp, aie::FirConfig::case4()),
                 runFir(kCompiled, aie::FirConfig::case4()));
}

TEST(BackendEquivTest, Systolic4x4Ws)
{
    expectMatrix(runArray(kInterp, 4, scalesim::Dataflow::WS),
                 runArray(kCompiled, 4, scalesim::Dataflow::WS));
}

TEST(BackendEquivTest, Systolic4x4Os)
{
    expectMatrix(runArray(kInterp, 4, scalesim::Dataflow::OS),
                 runArray(kCompiled, 4, scalesim::Dataflow::OS));
}

TEST(BackendEquivTest, Systolic8x8Ws)
{
    expectMatrix(runArray(kInterp, 8, scalesim::Dataflow::WS),
                 runArray(kCompiled, 8, scalesim::Dataflow::WS));
}

TEST(BackendEquivTest, Systolic8x8Os)
{
    expectMatrix(runArray(kInterp, 8, scalesim::Dataflow::OS),
                 runArray(kCompiled, 8, scalesim::Dataflow::OS));
}

/** Shared-bus SoC: the PE bodies mix fusable register traffic with
 *  connection-carrying boundary reads/writes that now fuse too (the
 *  fused executor does the acquire/transfer accounting in-group) —
 *  contention arbitration has to land identically on every backend. */
TEST(BackendEquivTest, SocSharedBusContention)
{
    soc::SocConfig cfg = soc::SocConfig::heteroStarved();
    expectMatrix(runSoc(kInterp, cfg), runSoc(kCompiled, cfg));
}

/** Boundary-op fusion on the dual-tile shared-bus scenario: beyond the
 *  usual two-way identity, assert the fused dispatch count drops far
 *  enough that conn-carrying bus reads/writes must themselves be inside
 *  fused groups. Interior-only fusion (MACs, address math) reaches
 *  roughly dispatchCount ≈ opsExecuted/2.7 on this workload; with the
 *  boundary ops fused it is ≈ opsExecuted/4. The 3x threshold sits
 *  between the two, so it fails if conn-carrying Read/Write ever
 *  silently drops back out of fusion. */
TEST(BackendEquivTest, SocDualSharedBusBoundaryFusion)
{
    soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
    RunOutcome interp = runSoc(kInterp, cfg);
    RunOutcome compiled = runSoc(kCompiled, cfg);
    expectMatrix(interp, compiled);
    EXPECT_LT(compiled.report.dispatchCount * 3,
              compiled.report.opsExecuted);
}

/** Buffered layer pipeline: overlapping items queue on stage
 *  processors and DMA FIFOs; hop writes ride bandwidth-limited
 *  connections. */
TEST(BackendEquivTest, SocPipelineBuffered)
{
    soc::PipelineConfig cfg = soc::PipelineConfig::small();
    expectMatrix(runSocPipeline(kInterp, cfg),
                 runSocPipeline(kCompiled, cfg));
}

/** A launch on @p proc, after @p deps, running @p n 1-cycle addi ops
 *  (a chain the fuser turns into one group). */
ir::Value
busyLaunch(ir::OpBuilder &b, std::vector<ir::Value> deps, ir::Value proc,
           int n)
{
    auto launch = b.create<equeue::LaunchOp>(std::move(deps), proc,
                                             std::vector<ir::Value>{},
                                             std::vector<ir::Type>{});
    ir::OpBuilder::InsertionGuard g(b);
    equeue::LaunchOp l(launch.op());
    b.setInsertionPointToEnd(&l.body());
    ir::Context &ctx = b.context();
    auto one = b.create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
    ir::Value acc = one->result(0);
    for (int i = 0; i < n; ++i)
        acc = b.create<arith::AddIOp>(acc, one->result(0))->result(0);
    b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    return launch->result(0);
}

/** A launch on @p proc capturing @p stream that, @p n times, runs one
 *  addi and then pushes its value (@p write) or pops one element. */
ir::Value
streamLaunch(ir::OpBuilder &b, ir::Value dep, ir::Value proc,
             ir::Value stream, int n, bool write)
{
    auto launch = b.create<equeue::LaunchOp>(
        std::vector<ir::Value>{dep}, proc, std::vector<ir::Value>{stream},
        std::vector<ir::Type>{});
    ir::OpBuilder::InsertionGuard g(b);
    equeue::LaunchOp l(launch.op());
    b.setInsertionPointToEnd(&l.body());
    ir::Context &ctx = b.context();
    auto one = b.create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
    ir::Value acc = one->result(0);
    for (int i = 0; i < n; ++i) {
        acc = b.create<arith::AddIOp>(acc, one->result(0))->result(0);
        if (write)
            b.create<equeue::StreamWriteOp>(acc, l.body().argument(0),
                                            ir::Value());
        else
            b.create<equeue::StreamReadOp>(l.body().argument(0),
                                           int64_t{1}, 32u, ir::Value());
    }
    b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    return launch->result(0);
}

/** Every kind of pending engine work in one module: a launch queued
 *  behind two dependencies that are both still pending (the issue
 *  queue's join), a control_or whose second dependency lands late, a
 *  control_and, a DMA memcpy queued behind it, two readers blocked on
 *  one stream FIFO while the producer pushes one element at a time,
 *  and a top-level await-all. */
RunOutcome
runWakeupKinds(Mode mode)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    auto proc = [&] {
        return b.create<equeue::CreateProcOp>(std::string("ARMr5"))
            ->result(0);
    };
    ir::Value p0 = proc(), p1 = proc(), p2 = proc();
    ir::Value prod = proc(), r0 = proc(), r1 = proc();
    ir::Value dma = b.create<equeue::CreateDmaOp>()->result(0);
    auto sram = b.create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{64}, 32u, 2u);
    ir::Value src = b.create<equeue::AllocOp>(sram->result(0),
                                              std::vector<int64_t>{16}, 32u)
                        ->result(0);
    ir::Value dst = b.create<equeue::AllocOp>(sram->result(0),
                                              std::vector<int64_t>{16}, 32u)
                        ->result(0);
    ir::Value stream = b.create<equeue::CreateStreamOp>(32u)->result(0);
    ir::Value start = b.create<equeue::ControlStartOp>()->result(0);

    ir::Value fast = busyLaunch(b, {start}, p0, 3);
    ir::Value slow = busyLaunch(b, {start}, p1, 9);
    busyLaunch(b, {fast, slow}, p2, 2);
    ir::Value any = b.create<equeue::ControlOrOp>(
                         std::vector<ir::Value>{fast, slow})
                        ->result(0);
    busyLaunch(b, {any}, p0, 4);
    ir::Value all = b.create<equeue::ControlAndOp>(
                         std::vector<ir::Value>{fast, slow})
                        ->result(0);
    b.create<equeue::MemcpyOp>(all, src, dst, dma);
    streamLaunch(b, start, r0, stream, 3, /*write=*/false);
    streamLaunch(b, start, r1, stream, 3, /*write=*/false);
    streamLaunch(b, start, prod, stream, 6, /*write=*/true);
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{});
    return simulate(mode, module.get());
}

TEST(BackendEquivTest, EveryWakeupKind)
{
    RunOutcome interp = runWakeupKinds(kInterp);
    RunOutcome compiled = runWakeupKinds(kCompiled);
    expectMatrix(interp, compiled);
    EXPECT_EQ(interp.report.cycles, 17u);
}

/** Save/restore one environment variable so the selection-seam tests
 *  are env-neutral even under the interpreter CI leg. */
class EnvGuard {
  public:
    explicit EnvGuard(const char *name) : _name(name)
    {
        const char *v = std::getenv(name);
        if (v) {
            _had = true;
            _old = v;
        }
    }
    ~EnvGuard()
    {
        if (_had)
            setenv(_name, _old.c_str(), 1);
        else
            unsetenv(_name);
    }

  private:
    const char *_name;
    bool _had = false;
    std::string _old;
};

TEST(BackendEquivTest, SelectionSeam)
{
    EnvGuard guard("EQ_SIM_BACKEND");

    unsetenv("EQ_SIM_BACKEND");
    EXPECT_EQ(sim::Simulator().backend(), sim::Backend::Compiled);

    setenv("EQ_SIM_BACKEND", "interp", 1);
    EXPECT_EQ(sim::Simulator().backend(), sim::Backend::Interp);

    setenv("EQ_SIM_BACKEND", "compiled", 1);
    EXPECT_EQ(sim::Simulator().backend(), sim::Backend::Compiled);

    // An explicit option always beats the environment.
    sim::EngineOptions opts;
    opts.backend = sim::Backend::Interp;
    setenv("EQ_SIM_BACKEND", "compiled", 1);
    EXPECT_EQ(sim::Simulator(opts).backend(), sim::Backend::Interp);
}

/** backendName and backendFromName are inverses, and resolveBackend
 *  picks what a Simulator constructed in the same environment runs. */
TEST(BackendEquivTest, BackendNamesRoundTripAndResolve)
{
    for (sim::Backend b : {sim::Backend::Auto, sim::Backend::Interp,
                           sim::Backend::Compiled}) {
        sim::Backend parsed = sim::Backend::Auto;
        ASSERT_TRUE(sim::backendFromName(sim::backendName(b), &parsed));
        EXPECT_EQ(parsed, b);
    }
    sim::Backend untouched = sim::Backend::Interp;
    EXPECT_FALSE(sim::backendFromName("fused", &untouched));
    EXPECT_EQ(untouched, sim::Backend::Interp);

    EnvGuard guard("EQ_SIM_BACKEND");
    for (const char *env : {"", "interp", "compiled"}) {
        setenv("EQ_SIM_BACKEND", env, 1);
        EXPECT_EQ(sim::resolveBackend(sim::Backend::Auto),
                  sim::Simulator().backend())
            << "EQ_SIM_BACKEND='" << env << "'";
        EXPECT_EQ(sim::resolveBackend(sim::Backend::Interp),
                  sim::Backend::Interp);
    }
}

/** Fusion is no longer a separate switch: it follows the backend. */
TEST(BackendEquivTest, FusionSelectionSeam)
{
    EnvGuard guard("EQ_SIM_BACKEND");

    unsetenv("EQ_SIM_BACKEND");
    EXPECT_TRUE(sim::Simulator().fusionEnabled());
    setenv("EQ_SIM_BACKEND", "interp", 1);
    EXPECT_FALSE(sim::Simulator().fusionEnabled());

    sim::EngineOptions opts;
    opts.backend = sim::Backend::Compiled;
    EXPECT_TRUE(sim::Simulator(opts).fusionEnabled());
}

TEST(BackendEquivTest, PrecompileCountsMicroOps)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 4;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);

    sim::EngineOptions opts;
    opts.backend = sim::Backend::Compiled;
    sim::Simulator s(opts);
    size_t n1 = s.precompile(module.get()).microOps;
    EXPECT_GT(n1, 0u);
    // Deterministic: recompiling from scratch yields the same stream.
    EXPECT_EQ(n1, s.precompile(module.get()).microOps);
    // And a subsequent simulation is unaffected by the measurement.
    auto rep = s.simulate(module.get());
    EXPECT_GT(rep.cycles, 0u);
}

/** Launch bodies of one shape share one compiled program. */
sim::PrecompileStats
precompiled(ir::Operation *module)
{
    sim::EngineOptions opts;
    opts.backend = sim::Backend::Compiled;
    return sim::Simulator(opts).precompile(module);
}

/** Four launch sites whose bodies agree in structure and differ only in
 *  what they capture: a buffer in a memory of the site's own, so the
 *  per-memory traffic shows which buffer each body touched. Each body
 *  uses a top-level constant it does not capture, calls the "mac"
 *  extern (signature attribute) and launches a nested body on a
 *  top-level processor it does not capture either. */
ir::OwningOpRef
buildSharedBodies(ir::Context &ctx)
{
    auto module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    ir::Value inner_proc =
        b.create<equeue::CreateProcOp>(std::string("ARMr5"))->result(0);
    ir::Value k =
        b.create<arith::ConstantOp>(int64_t{5}, ctx.i32Type())->result(0);
    ir::Value start = b.create<equeue::ControlStartOp>()->result(0);
    for (int site = 0; site < 4; ++site) {
        ir::Value proc =
            b.create<equeue::CreateProcOp>(std::string("ARMr5"))->result(0);
        auto sram = b.create<equeue::CreateMemOp>(
            std::string("SRAM"), std::vector<int64_t>{64}, 32u, 2u);
        ir::Value buf = b.create<equeue::AllocOp>(sram->result(0),
                                                  std::vector<int64_t>{1},
                                                  32u)
                            ->result(0);
        auto launch = b.create<equeue::LaunchOp>(
            std::vector<ir::Value>{start}, proc, std::vector<ir::Value>{buf},
            std::vector<ir::Type>{});
        ir::OpBuilder::InsertionGuard g(b);
        equeue::LaunchOp l(launch.op());
        b.setInsertionPointToEnd(&l.body());
        ir::Value arg = l.body().argument(0);
        ir::Value one =
            b.create<arith::ConstantOp>(int64_t{1}, ctx.i32Type())->result(0);
        ir::Value sum = b.create<arith::AddIOp>(one, k)->result(0);
        b.create<equeue::WriteOp>(sum, arg);
        ir::Value cell = b.create<equeue::ReadOp>(arg)->result(0);
        ir::Value mac = b.create<equeue::ExternOp>(
                             std::string("mac"),
                             std::vector<ir::Value>{cell, cell, sum},
                             std::vector<ir::Type>{ctx.i32Type()})
                            ->result(0);
        b.create<equeue::WriteOp>(mac, arg);
        ir::Value go = b.create<equeue::ControlStartOp>()->result(0);
        auto nested = b.create<equeue::LaunchOp>(
            std::vector<ir::Value>{go}, inner_proc,
            std::vector<ir::Value>{arg}, std::vector<ir::Type>{});
        {
            ir::OpBuilder::InsertionGuard g2(b);
            equeue::LaunchOp n(nested.op());
            b.setInsertionPointToEnd(&n.body());
            ir::Value v = b.create<equeue::ReadOp>(n.body().argument(0))
                              ->result(0);
            ir::Value w = b.create<equeue::ExternOp>(
                               std::string("mac"),
                               std::vector<ir::Value>{v, v, k},
                               std::vector<ir::Type>{ctx.i32Type()})
                              ->result(0);
            b.create<equeue::WriteOp>(w, n.body().argument(0));
            b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
        }
        b.create<equeue::AwaitOp>(
            std::vector<ir::Value>{nested->result(0)});
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{});
    return module;
}

TEST(BackendEquivTest, SharedLaunchBodiesMatchInterp)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = buildSharedBodies(ctx);
    ASSERT_EQ(module->verify(), "");
    // The top level, the shared body and its nested body.
    EXPECT_EQ(precompiled(module.get()).programs, 3u);
    RunOutcome interp = simulate(kInterp, module.get());
    RunOutcome compiled = simulate(kCompiled, module.get());
    expectMatrix(interp, compiled);
    ASSERT_EQ(compiled.report.memories.size(), 4u);
    for (const auto &mem : compiled.report.memories)
        EXPECT_GT(mem.bytesWritten, 0u) << mem.name;
}

TEST(BackendEquivTest, BodiesDifferingInStructureAreNotShared)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    ir::Value proc =
        b.create<equeue::CreateProcOp>(std::string("ARMr5"))->result(0);
    ir::Value k1 =
        b.create<arith::ConstantOp>(int64_t{5}, ctx.i32Type())->result(0);
    ir::Value k2 =
        b.create<arith::ConstantOp>(int64_t{5}, ctx.i32Type())->result(0);
    ir::Value start = b.create<equeue::ControlStartOp>()->result(0);
    // Body: c = const value : type; d = const 7; x = addi(c, d) (or
    // addi(d, c)); addi(x, outer).
    auto site = [&](int64_t value, ir::Type type, bool swap,
                    ir::Value outer) {
        auto launch = b.create<equeue::LaunchOp>(
            std::vector<ir::Value>{start}, proc, std::vector<ir::Value>{},
            std::vector<ir::Type>{});
        ir::OpBuilder::InsertionGuard g(b);
        equeue::LaunchOp l(launch.op());
        b.setInsertionPointToEnd(&l.body());
        ir::Value c = b.create<arith::ConstantOp>(value, type)->result(0);
        ir::Value d =
            b.create<arith::ConstantOp>(int64_t{7}, type)->result(0);
        ir::Value x = swap ? b.create<arith::AddIOp>(d, c)->result(0)
                           : b.create<arith::AddIOp>(c, d)->result(0);
        b.create<arith::AddIOp>(x, outer);
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    };
    site(1, ctx.i32Type(), false, k1); // the base shape
    site(1, ctx.i32Type(), false, k1); // shares the base shape
    site(2, ctx.i32Type(), false, k1); // an attribute differs
    site(1, ctx.i64Type(), false, k1); // a result type differs
    site(1, ctx.i32Type(), true, k1);  // local operand wiring differs
    site(1, ctx.i32Type(), false, k2); // outer operand wiring differs
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{});
    EXPECT_EQ(precompiled(module.get()).programs, 1u + 5u);
}

TEST(BackendEquivTest, SystolicPeBodiesCompileOncePerShape)
{
    // The BM_CompileModule module. At 8x8 its 64 launch bodies fall
    // into 5 shapes, so 6 programs (with the top level) are compiled;
    // the shapes do not grow with the array. The micro-op counts and
    // the 8x8 run's dispatch and op counts pin the superinstruction
    // group layout: a group boundary that moves changes them.
    const struct {
        int edge;
        size_t microOps;
    } cases[] = {{4, 247}, {8, 759}, {16, 2679}};
    for (const auto &c : cases) {
        scalesim::Config cfg;
        cfg.ah = cfg.aw = c.edge;
        cfg.c = 2;
        cfg.h = cfg.w = 8;
        cfg.n = 2;
        cfg.fh = cfg.fw = 2;
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = systolic::buildSystolicModule(ctx, cfg);
        size_t bodies = 0;
        module->walk([&](ir::Operation *op) {
            bodies += op->opId() == equeue::LaunchOp::id(ctx);
        });
        const sim::PrecompileStats stats = precompiled(module.get());
        EXPECT_EQ(stats.programs, 5u + 1u) << c.edge << "x" << c.edge;
        EXPECT_EQ(stats.microOps, c.microOps) << c.edge << "x" << c.edge;
        if (c.edge == 8) {
            EXPECT_EQ(bodies, 64u);
            sim::EngineOptions opts;
            opts.backend = sim::Backend::Compiled;
            sim::SimReport rep = sim::Simulator(opts).simulate(module.get());
            EXPECT_EQ(rep.dispatchCount, 2797u);
            EXPECT_EQ(rep.opsExecuted, 14020u);
        }
    }
}

} // namespace
