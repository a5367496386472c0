/**
 * @file
 * Exact loop fast-forward: on the compiled backend a loop whose timing
 * state repeats between two iteration boundaries has its remaining
 * iterations accounted at once. Nothing a run reports may change:
 *  - seeded systolic keys (all dataflows, 1-wide arrays, partial folds,
 *    fh == h, up to a few hundred filters) and a few SoC and pipeline
 *    keys report byte-identically on the interpreter, which never
 *    fast-forwards, and on the compiled backend, which does;
 *  - the compiled report, dispatch count included, equals a traced
 *    compiled run's, which does not fast-forward;
 *  - each rule that bars a loop is exercised against the interpreter:
 *    an induction variable that indexes a buffer, a structure op in the
 *    body, a data-dependent index anywhere in the module, a user
 *    extern, a re-registered built-in extern and a custom memory kind;
 *  - seeded loops whose launches contend for memory banks report as
 *    on the interpreter;
 *  - an op budget the skipped iterations would cross fails the run
 *    exactly as the full run fails it;
 *  - a warm short systolic run skips a pinned number of iterations.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "config_keys.hh"
#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "serve/protocol.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

constexpr sim::Backend kInterp = sim::Backend::Interp;
constexpr sim::Backend kCompiled = sim::Backend::Compiled;

struct Outcome {
    std::string report; ///< reportToJson without wall_s
    uint64_t fastForwarded = 0;
};

/** The report of @p rep as served, without its wall time; without the
 *  dispatch count too unless @p dispatches (the one field that differs
 *  between backends by design). */
std::string
render(sim::SimReport rep, bool dispatches)
{
    if (!dispatches)
        rep.dispatchCount = 0;
    return serve::reportToJson(rep, /*include_wall=*/false).dump();
}

Outcome
runKey(const serve::ModelKey &key, sim::Backend backend, bool trace = false)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    ir::OwningOpRef module = key.build(ctx);
    sim::EngineOptions opts;
    opts.backend = backend;
    opts.enableTrace = trace;
    sim::Simulator sim(opts);
    sim::SimReport rep = sim.simulate(module.get());
    EXPECT_EQ(sim.pendingEvents(), 0u);
    return {render(rep, /*dispatches=*/true), sim.fastForwardedIterations()};
}

/** Strip the "dispatches" field from a rendered report. */
std::string
withoutDispatches(const std::string &report)
{
    serve::Json j;
    std::string err;
    EXPECT_TRUE(serve::Json::parse(report, &j, &err)) << err;
    j.set("dispatches", 0);
    return j.dump();
}

TEST(FastForward, KeyGeneratorCoversTheRules)
{
    bool flows[3] = {}, one_wide = false, partial = false, tall = false,
         many = false;
    for (const serve::ModelKey &key : test::systolicKeys(1, 36, 40000, 8)) {
        const scalesim::Config &c = key.systolic;
        flows[static_cast<int>(c.dataflow)] = true;
        one_wide = one_wide || c.ah == 1 || c.aw == 1;
        partial = partial || c.d1() % c.ah != 0 || c.d2() % c.aw != 0;
        tall = tall || c.fh == c.h;
        many = many || c.n >= 100;
        EXPECT_LE(test::peSteps(c), 40000);
        EXPECT_GE(test::folds(c), 8);
    }
    EXPECT_TRUE(flows[0] && flows[1] && flows[2]);
    EXPECT_TRUE(one_wide && partial && tall && many);
    // Same seed, same keys.
    EXPECT_TRUE(test::systolicKeys(7, 5) == test::systolicKeys(7, 5));
}

TEST(FastForward, SystolicKeysMatchTheInterpreter)
{
    // At least 8 folds each: the fold loop repeats within its first
    // few folds, whatever the array (shorter runs may finish first).
    size_t index = 0;
    for (const serve::ModelKey &key : test::systolicKeys(1, 36, 40000, 8)) {
        const std::string what =
            "key " + std::to_string(index++) + ": " +
            serve::modelKeyToJson(key).dump();
        Outcome interp = runKey(key, kInterp);
        Outcome compiled = runKey(key, kCompiled);
        Outcome traced = runKey(key, kCompiled, /*trace=*/true);
        EXPECT_EQ(withoutDispatches(interp.report),
                  withoutDispatches(compiled.report))
            << what;
        EXPECT_EQ(traced.report, compiled.report) << what;
        EXPECT_GT(compiled.fastForwarded, 0u) << what;
        EXPECT_EQ(interp.fastForwarded, 0u) << what;
        EXPECT_EQ(traced.fastForwarded, 0u) << what;
    }
}

TEST(FastForward, SocAndPipelineKeysMatchTheInterpreter)
{
    for (const serve::ModelKey &key : test::socAndPipelineKeys()) {
        const std::string what = serve::modelKeyToJson(key).dump();
        Outcome interp = runKey(key, kInterp);
        Outcome compiled = runKey(key, kCompiled);
        Outcome traced = runKey(key, kCompiled, /*trace=*/true);
        EXPECT_EQ(withoutDispatches(interp.report),
                  withoutDispatches(compiled.report))
            << what;
        EXPECT_EQ(traced.report, compiled.report) << what;
        EXPECT_EQ(interp.fastForwarded, 0u) << what;
    }
}

TEST(FastForward, LongRunSkipsAlmostEveryIteration)
{
    // 4x4 WS over 2,000 filters: 500 folds of 49 stream and 6 drain
    // steps. The fold loop repeats after a few folds.
    scalesim::Config cfg;
    cfg.n = 2000;
    const serve::ModelKey key = serve::ModelKey::systolicKey(cfg);
    Outcome interp = runKey(key, kInterp);
    Outcome compiled = runKey(key, kCompiled);
    EXPECT_EQ(withoutDispatches(interp.report),
              withoutDispatches(compiled.report));
    EXPECT_GT(compiled.fastForwarded, 480u);
}

TEST(FastForward, WarmSessionRunRepeatsItsReport)
{
    scalesim::Config cfg;
    cfg.n = 60;
    cfg.dataflow = scalesim::Dataflow::IS;
    sim::EngineOptions opts;
    opts.backend = kCompiled;
    sim::Session session(opts);
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    });
    const std::string cold = render(session.run(), true);
    const uint64_t skipped = session.simulator().fastForwardedIterations();
    const std::string warm = render(session.run(), true);
    EXPECT_GT(skipped, 0u);
    EXPECT_EQ(session.simulator().fastForwardedIterations(), skipped);
    EXPECT_EQ(cold, warm);
}

TEST(FastForward, ShortRunSkipsAllButItsWarmUp)
{
    // 4x4 WS over 50 filters (BM_SystolicRun's short leg): no issue
    // attempt is left pending at a loop boundary, so each loop repeats
    // after its first few iterations.
    scalesim::Config cfg;
    cfg.n = 50;
    sim::EngineOptions opts;
    opts.backend = kCompiled;
    sim::Session session(opts);
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    });
    session.run();
    session.run();
    EXPECT_EQ(session.simulator().fastForwardedIterations(), 243u);
}

/** What the loop body of loopModule runs. */
struct LoopBody {
    std::string signature = "mac"; ///< the extern each iteration calls
    std::string memKind = "SRAM";  ///< the memory the cell lives on
    bool indexByIv = false;        ///< read cell[iv] instead of cell
    bool getsComp = false;         ///< each iteration looks up a component
    /** Before the loop, read a cell at an index read from memory. */
    bool dataIndex = false;
};

/**
 * A top-level loop of @p trip iterations; each launches, on one
 * processor, a body that reads a cell, calls @p body.signature on it
 * and writes the result back, and awaits the launch. With the default
 * body the loop fast-forwards.
 */
ir::OwningOpRef
loopModule(ir::Context &ctx, int64_t trip, const LoopBody &body)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    ir::Value proc =
        b.create<equeue::CreateProcOp>(std::string("MAC"))->result(0);
    ir::Value mem = b.create<equeue::CreateMemOp>(
                         body.memKind, std::vector<int64_t>{trip}, 32u, 2u)
                        ->result(0);
    ir::Value comp =
        b.create<equeue::CreateCompOp>(std::string("P"),
                                       std::vector<ir::Value>{proc})
            ->result(0);
    ir::Value cell =
        b.create<equeue::AllocOp>(
             mem, std::vector<int64_t>{body.indexByIv ? trip : 1}, 32u)
            ->result(0);
    if (body.dataIndex) {
        ir::Value table =
            b.create<equeue::AllocOp>(mem, std::vector<int64_t>{4}, 32u)
                ->result(0);
        ir::Value zero =
            b.create<arith::ConstantOp>(int64_t{0}, ctx.indexType())
                ->result(0);
        ir::Value at = b.create<equeue::ReadOp>(
                            table, ir::Value(), std::vector<ir::Value>{zero})
                           ->result(0);
        b.create<equeue::ReadOp>(table, ir::Value(),
                                 std::vector<ir::Value>{at});
    }
    auto loop = b.create<affine::ForOp>(int64_t{0}, trip, int64_t{1});
    affine::ForOp f(loop.op());
    b.setInsertionPointToEnd(&f.body());
    if (body.getsComp)
        b.create<equeue::GetCompOp>(comp, std::string("P"), ctx.procType());
    std::vector<ir::Value> captured{cell};
    if (body.indexByIv)
        captured.push_back(f.inductionVar());
    ir::Value start = b.create<equeue::ControlStartOp>()->result(0);
    auto launch = b.create<equeue::LaunchOp>(std::vector<ir::Value>{start},
                                             proc, captured,
                                             std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(b);
        ir::Block &lb = equeue::LaunchOp(launch.op()).body();
        b.setInsertionPointToEnd(&lb);
        std::vector<ir::Value> idx;
        if (body.indexByIv)
            idx.push_back(lb.argument(1));
        ir::Value v =
            b.create<equeue::ReadOp>(lb.argument(0), ir::Value(), idx)
                ->result(0);
        ir::Value r = b.create<equeue::ExternOp>(
                           body.signature, std::vector<ir::Value>{v, v, v},
                           std::vector<ir::Type>{ctx.i32Type()})
                          ->result(0);
        b.create<equeue::WriteOp>(r, lb.argument(0), ir::Value(), idx);
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});
    b.create<affine::YieldOp>(std::vector<ir::Value>{});
    return module;
}

/** Iterations of the loops runLoop runs. */
constexpr int64_t kTrip = 200;

/** Run loopModule on @p backend after @p setup prepares the engine. */
template <typename Setup>
Outcome
runLoop(const LoopBody &body, sim::Backend backend, Setup &&setup)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    ir::OwningOpRef module = loopModule(ctx, kTrip, body);
    sim::EngineOptions opts;
    opts.backend = backend;
    sim::Simulator sim(opts);
    setup(sim);
    Outcome out{render(sim.simulate(module.get()), false),
                sim.fastForwardedIterations()};
    EXPECT_EQ(sim.pendingEvents(), 0u);
    return out;
}

void
noSetup(sim::Simulator &)
{}

TEST(FastForward, PlainLoopFastForwards)
{
    const LoopBody body;
    Outcome interp = runLoop(body, kInterp, noSetup);
    Outcome compiled = runLoop(body, kCompiled, noSetup);
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_GT(compiled.fastForwarded, 150u);
}

TEST(FastForward, InductionIndexedLoopRunsInFull)
{
    LoopBody body;
    body.indexByIv = true;
    Outcome interp = runLoop(body, kInterp, noSetup);
    Outcome compiled = runLoop(body, kCompiled, noSetup);
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_EQ(compiled.fastForwarded, 0u);
}

TEST(FastForward, StructureOpInBodyRunsInFull)
{
    // A lookup changes no state, but a structure op bars the loop.
    LoopBody body;
    body.getsComp = true;
    Outcome interp = runLoop(body, kInterp, noSetup);
    Outcome compiled = runLoop(body, kCompiled, noSetup);
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_EQ(compiled.fastForwarded, 0u);
}

TEST(FastForward, DataDependentIndexBarsTheModule)
{
    // The indexed read sits outside the loop: the rule is module-wide.
    LoopBody body;
    body.dataIndex = true;
    Outcome interp = runLoop(body, kInterp, noSetup);
    Outcome compiled = runLoop(body, kCompiled, noSetup);
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_EQ(compiled.fastForwarded, 0u);
}

TEST(FastForward, UserExternRunsEveryCall)
{
    LoopBody body;
    body.signature = "probe";
    uint64_t calls[2] = {};
    auto probe = [&](int which) {
        return [&calls, which](sim::Simulator &s) {
            s.opFunctions().registerOp(
                "probe", [&calls, which](const sim::OpCall &) {
                    ++calls[which];
                    sim::OpFnResult r;
                    r.results.push_back(sim::SimValue::ofInt(1));
                    return r;
                });
        };
    };
    Outcome interp = runLoop(body, kInterp, probe(0));
    Outcome compiled = runLoop(body, kCompiled, probe(1));
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_EQ(compiled.fastForwarded, 0u);
    EXPECT_EQ(calls[0], uint64_t(kTrip));
    EXPECT_EQ(calls[1], calls[0]);
}

TEST(FastForward, ReregisteredMacRunsInFull)
{
    uint64_t calls = 0;
    auto reregister = [&](sim::Simulator &s) {
        s.opFunctions().registerOp("mac", [&](const sim::OpCall &call) {
            ++calls;
            sim::OpFnResult r;
            r.results.push_back(call.args[0]);
            return r;
        });
    };
    Outcome interp = runLoop(LoopBody(), kInterp, reregister);
    const uint64_t interp_calls = calls;
    calls = 0;
    Outcome compiled = runLoop(LoopBody(), kCompiled, reregister);
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_EQ(compiled.fastForwarded, 0u);
    EXPECT_EQ(calls, interp_calls);
}

TEST(FastForward, CustomMemoryKindRunsInFull)
{
    // A memory with state the timing capture cannot see: every third
    // access is slow.
    class Wobbly : public sim::Memory {
      public:
        using sim::Memory::Memory;
        sim::Cycles
        getReadOrWriteCycles(bool, int64_t words) override
        {
            return (++_n % 3 == 0 ? 5 : 1) * sim::Cycles(words);
        }

      private:
        uint64_t _n = 0;
    };
    auto custom = [](sim::Simulator &s) {
        s.componentFactory().registerMemoryKind(
            "Wobbly", [](const std::string &name, std::vector<int64_t> shape,
                         unsigned bits, unsigned banks) {
                return std::make_unique<Wobbly>(name, "Wobbly",
                                                std::move(shape), bits,
                                                banks, 1);
            });
    };
    LoopBody body;
    body.memKind = "Wobbly";
    Outcome interp = runLoop(body, kInterp, custom);
    Outcome compiled = runLoop(body, kCompiled, custom);
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_EQ(compiled.fastForwarded, 0u);
    // Re-registering a built-in kind bars it as well.
    auto sram = [](sim::Simulator &s) {
        s.componentFactory().registerMemoryKind(
            "SRAM", [](const std::string &name, std::vector<int64_t> shape,
                       unsigned bits, unsigned banks) {
                return std::make_unique<Wobbly>(name, "SRAM",
                                                std::move(shape), bits,
                                                banks, 1);
            });
    };
    interp = runLoop(LoopBody(), kInterp, sram);
    compiled = runLoop(LoopBody(), kCompiled, sram);
    EXPECT_EQ(interp.report, compiled.report);
    EXPECT_EQ(compiled.fastForwarded, 0u);
}

/** One step of a contendedLoop lane: @ref compute 1-cycle adds, then a
 *  whole-buffer read of @ref words words on shared memory @ref mem,
 *  written back if @ref write. */
struct Access {
    int compute = 0;
    int mem = 0;
    int words = 1;
    bool write = false;
};

/**
 * A top-level loop of @p trip iterations; each launches lane j of
 * @p lanes on processor j, all at once, and awaits them all. The lanes'
 * buffers share memories of @p banks banks each, so lanes wait for one
 * another at the banks, in the order they issue and resume.
 */
ir::OwningOpRef
contendedLoop(ir::Context &ctx, int64_t trip,
              const std::vector<std::vector<Access>> &lanes,
              const std::vector<unsigned> &banks)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    std::vector<ir::Value> mems, procs;
    for (unsigned n : banks)
        mems.push_back(b.create<equeue::CreateMemOp>(
                            std::string("SRAM"), std::vector<int64_t>{64},
                            32u, n)
                           ->result(0));
    std::vector<std::vector<ir::Value>> bufs;
    for (const std::vector<Access> &lane : lanes) {
        procs.push_back(
            b.create<equeue::CreateProcOp>(std::string("ARMr5"))->result(0));
        bufs.emplace_back();
        for (const Access &a : lane)
            bufs.back().push_back(
                b.create<equeue::AllocOp>(mems[a.mem],
                                          std::vector<int64_t>{a.words}, 32u)
                    ->result(0));
    }
    auto loop = b.create<affine::ForOp>(int64_t{0}, trip, int64_t{1});
    b.setInsertionPointToEnd(&affine::ForOp(loop.op()).body());
    ir::Value start = b.create<equeue::ControlStartOp>()->result(0);
    std::vector<ir::Value> done;
    for (size_t j = 0; j < lanes.size(); ++j) {
        auto launch = b.create<equeue::LaunchOp>(
            std::vector<ir::Value>{start}, procs[j], bufs[j],
            std::vector<ir::Type>{});
        done.push_back(launch->result(0));
        ir::OpBuilder::InsertionGuard g(b);
        ir::Block &lb = equeue::LaunchOp(launch.op()).body();
        b.setInsertionPointToEnd(&lb);
        ir::Value one =
            b.create<arith::ConstantOp>(int64_t{1}, ctx.i32Type())->result(0);
        ir::Value acc = one;
        for (size_t k = 0; k < lanes[j].size(); ++k) {
            const Access &a = lanes[j][k];
            for (int i = 0; i < a.compute; ++i)
                acc = b.create<arith::AddIOp>(acc, one)->result(0);
            ir::Value buf = lb.argument(static_cast<unsigned>(k));
            ir::Value v = b.create<equeue::ReadOp>(buf, ir::Value(),
                                                   std::vector<ir::Value>{})
                              ->result(0);
            if (a.write)
                b.create<equeue::WriteOp>(v, buf, ir::Value(),
                                          std::vector<ir::Value>{});
        }
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b.create<equeue::AwaitOp>(done);
    b.create<affine::YieldOp>(std::vector<ir::Value>{});
    return module;
}

TEST(FastForward, ContendedLoopsMatchTheInterpreter)
{
    // Seeded lanes of 1-3 accesses on 3-9 processors over one or two
    // memories of one or two banks: who waits at a bank depends on the
    // order in which lanes issue and resume.
    std::mt19937_64 rng(3);
    auto pick = [&](int n) { return static_cast<int>(rng() % uint64_t(n)); };
    int fast = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<unsigned> banks(1 + pick(2));
        for (unsigned &n : banks)
            n = 1 + pick(2);
        std::vector<std::vector<Access>> lanes(3 + pick(7));
        for (std::vector<Access> &lane : lanes) {
            lane.resize(1 + pick(3));
            for (Access &a : lane) {
                a.compute = pick(5);
                a.mem = pick(static_cast<int>(banks.size()));
                a.words = 1 + pick(3);
                a.write = pick(3) == 0;
            }
        }
        Outcome out[2];
        for (sim::Backend backend : {kInterp, kCompiled}) {
            ir::Context ctx;
            ir::registerAllDialects(ctx);
            ir::OwningOpRef module = contendedLoop(ctx, 40, lanes, banks);
            sim::EngineOptions opts;
            opts.backend = backend;
            sim::Simulator sim(opts);
            out[backend == kCompiled] = {
                render(sim.simulate(module.get()), false),
                sim.fastForwardedIterations()};
        }
        EXPECT_EQ(out[0].report, out[1].report) << "trial " << trial;
        fast += out[1].fastForwarded > 0;
    }
    EXPECT_GT(fast, 150);
}

/** The SimError a run of @p key under @p max_ops throws on @p backend;
 *  fails the test when the run completes. */
sim::SimError
budgetError(const serve::ModelKey &key, sim::Backend backend,
            uint64_t max_ops)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    ir::OwningOpRef module = key.build(ctx);
    sim::EngineOptions opts;
    opts.backend = backend;
    opts.maxOps = max_ops;
    sim::Simulator sim(opts);
    try {
        sim.simulate(module.get());
    } catch (const sim::SimError &e) {
        return e;
    }
    ADD_FAILURE() << "run under " << max_ops << " ops completed";
    return sim::SimError(ErrorCode::Internal, "no error");
}

TEST(FastForward, OpBudgetCrossedBySkippedIterationsFailsTheSame)
{
    scalesim::Config cfg;
    cfg.n = 400;
    const serve::ModelKey key = serve::ModelKey::systolicKey(cfg);
    const Outcome full = runKey(key, kCompiled);
    ASSERT_GT(full.fastForwarded, 0u);
    serve::Json rep;
    std::string err;
    ASSERT_TRUE(serve::Json::parse(full.report, &rep, &err)) << err;
    // Half the run's ops: the fold loop repeats after a few of its 100
    // folds, so the budget falls inside the skipped ones.
    const uint64_t budget = uint64_t(rep.getInt("ops", 0)) / 2;
    const sim::SimError interp = budgetError(key, kInterp, budget);
    const sim::SimError compiled = budgetError(key, kCompiled, budget);
    EXPECT_EQ(interp.code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(compiled.code(), interp.code());
    EXPECT_STREQ(compiled.what(), interp.what());
    // The budget the run needs exactly still completes.
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    ir::OwningOpRef module = key.build(ctx);
    sim::EngineOptions opts;
    opts.backend = kCompiled;
    opts.maxOps = uint64_t(rep.getInt("ops", 0));
    sim::Simulator sim(opts);
    EXPECT_EQ(render(sim.simulate(module.get()), true), full.report);
}

} // namespace
