/**
 * @file
 * sim::Session contract: one Context + Simulator + pinned module
 * behind a rebuild()/run() facade. ready() flips on the first rebuild,
 * repeated runs of the same pinned module report identical
 * deterministic fields, rebuild() swaps the
 * pinned program (reports track the new config), and run counters /
 * build timing behave as documented. The engine's pooled state (envs,
 * execs, events, joins, buffers) is invisible: runs of any size in any
 * order match a fresh Simulator, and reused buffers start zeroed.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "scalesim/scalesim.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

sim::Session::BuildFn
systolicBuilder(const scalesim::Config &cfg)
{
    return [cfg](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    };
}

TEST(SimSession, StartsNotReady)
{
    sim::Session session;
    EXPECT_FALSE(session.ready());
    EXPECT_EQ(session.module(), nullptr);
    EXPECT_EQ(session.runsCompleted(), 0u);
}

TEST(SimSession, RebuildThenRun)
{
    sim::Session session;
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    session.rebuild(systolicBuilder(cfg));
    ASSERT_TRUE(session.ready());
    ASSERT_NE(session.module(), nullptr);
    EXPECT_GT(session.lastBuildSeconds(), 0.0);

    sim::SimReport report = session.run();
    EXPECT_GT(report.cycles, 0u);
    EXPECT_GT(report.opsExecuted, 0u);
    EXPECT_EQ(session.runsCompleted(), 1u);
}

TEST(SimSession, RepeatRunsAreDeterministic)
{
    sim::Session session;
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    session.rebuild(systolicBuilder(cfg));

    sim::SimReport first = session.run();
    sim::SimReport second = session.run();
    sim::SimReport third = session.run();
    for (const sim::SimReport *r : {&second, &third}) {
        EXPECT_EQ(r->cycles, first.cycles);
        EXPECT_EQ(r->eventsExecuted, first.eventsExecuted);
        EXPECT_EQ(r->opsExecuted, first.opsExecuted);
        EXPECT_EQ(r->dispatchCount, first.dispatchCount);
        ASSERT_EQ(r->memories.size(), first.memories.size());
        for (size_t i = 0; i < r->memories.size(); ++i) {
            EXPECT_EQ(r->memories[i].bytesRead,
                      first.memories[i].bytesRead);
            EXPECT_EQ(r->memories[i].bytesWritten,
                      first.memories[i].bytesWritten);
        }
    }
    EXPECT_EQ(session.runsCompleted(), 3u);
}

TEST(SimSession, RebuildSwapsProgram)
{
    sim::Session session;
    scalesim::Config small;
    small.ah = small.aw = 2;
    session.rebuild(systolicBuilder(small));
    sim::SimReport smallReport = session.run();

    scalesim::Config big;
    big.ah = big.aw = 4;
    session.rebuild(systolicBuilder(big));
    sim::SimReport bigReport = session.run();
    // More PEs simulate more ops for the same conv problem.
    EXPECT_NE(bigReport.opsExecuted, smallReport.opsExecuted);

    // Rebuilding back reproduces the original report exactly.
    session.rebuild(systolicBuilder(small));
    sim::SimReport again = session.run();
    EXPECT_EQ(again.cycles, smallReport.cycles);
    EXPECT_EQ(again.opsExecuted, smallReport.opsExecuted);
    // The counter tracks the currently pinned module, so each rebuild
    // resets it.
    EXPECT_EQ(session.runsCompleted(), 1u);
}

TEST(SimSession, MatchesFreshSimulator)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;

    sim::Session session;
    session.rebuild(systolicBuilder(cfg));
    sim::SimReport sessionReport = session.run();

    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);
    sim::Simulator sim;
    sim::SimReport fresh = sim.simulate(module.get());
    EXPECT_EQ(sessionReport.cycles, fresh.cycles);
    EXPECT_EQ(sessionReport.opsExecuted, fresh.opsExecuted);
    EXPECT_EQ(sessionReport.eventsExecuted, fresh.eventsExecuted);
}

/** A run's report (wall time zeroed) and trace, rendered to text. */
std::string
render(sim::SimReport report, const sim::Trace &trace)
{
    report.wallSeconds = 0.0;
    std::ostringstream os;
    report.print(os);
    for (const sim::TraceEvent &ev : trace.events())
        os << ev.ts << " " << ev.dur << " " << ev.cat << " " << ev.pid
           << " " << ev.tid << " " << ev.name << "\n";
    return os.str();
}

sim::EngineOptions
tracedOn(sim::Backend backend)
{
    sim::EngineOptions opts;
    opts.backend = backend;
    opts.enableTrace = true;
    return opts;
}

/** @p cfg on a fresh Simulator in a fresh context. */
std::string
freshRun(const scalesim::Config &cfg, sim::Backend backend)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);
    sim::Simulator sim(tracedOn(backend));
    sim::SimReport report = sim.simulate(module.get());
    return render(report, sim.trace());
}

void
expectPoolsInvisible(sim::Backend backend)
{
    scalesim::Config big;
    big.ah = big.aw = 16;
    big.dataflow = scalesim::Dataflow::IS;
    scalesim::Config small;
    small.ah = small.aw = 2;
    small.dataflow = scalesim::Dataflow::WS;
    scalesim::Config other;
    other.ah = other.aw = 4;
    other.dataflow = scalesim::Dataflow::OS;
    const std::string bigRef = freshRun(big, backend);
    const std::string smallRef = freshRun(small, backend);
    const std::string otherRef = freshRun(other, backend);

    sim::Session session(tracedOn(backend));
    // A module outside the session, run on the session's simulator in
    // between pinned runs.
    auto otherModule = systolic::buildSystolicModule(session.context(), other);
    auto runOther = [&] {
        sim::SimReport r = session.simulator().simulate(otherModule.get());
        return render(r, session.simulator().trace());
    };
    auto runPinned = [&] {
        sim::SimReport r = session.run();
        return render(r, session.simulator().trace());
    };

    session.rebuild(systolicBuilder(big));
    EXPECT_EQ(runPinned(), bigRef);
    EXPECT_EQ(runPinned(), bigRef);
    EXPECT_EQ(runOther(), otherRef);
    EXPECT_EQ(runPinned(), bigRef);

    session.rebuild(systolicBuilder(small));
    EXPECT_EQ(runPinned(), smallRef);
    EXPECT_EQ(runOther(), otherRef);
    EXPECT_EQ(runPinned(), smallRef);

    session.rebuild(systolicBuilder(big));
    EXPECT_EQ(runPinned(), bigRef);
    EXPECT_EQ(runPinned(), bigRef);

    // Released pools: the pinned module renumbers and recompiles, and a
    // rebuild after a release runs like a fresh Simulator too.
    session.releasePools();
    EXPECT_EQ(runPinned(), bigRef);
    session.releasePools();
    session.rebuild(systolicBuilder(small));
    EXPECT_EQ(runPinned(), smallRef);
    EXPECT_EQ(runPinned(), smallRef);
}

TEST(SimSession, PooledStateIsInvisibleInterp)
{
    expectPoolsInvisible(sim::Backend::Interp);
}

TEST(SimSession, PooledStateIsInvisibleCompiled)
{
    expectPoolsInvisible(sim::Backend::Compiled);
}

/**
 * Session::rebuild drops the pinned module before building the next,
 * so the context's IR store rewinds and the new module lands on the
 * old one's addresses (ir/store.hh). Config B built on config A's
 * addresses runs as on a fresh Simulator, report and trace, and
 * verify() checks B afresh rather than trusting A's pass.
 */
void
expectRewoundAddressesInvisible(sim::Backend backend)
{
    scalesim::Config a;
    a.ah = a.aw = 4;
    a.dataflow = scalesim::Dataflow::WS;
    scalesim::Config b = a;
    b.dataflow = scalesim::Dataflow::IS;
    const std::string refA = freshRun(a, backend);
    const std::string refB = freshRun(b, backend);
    auto runPinned = [&](sim::Session &s) {
        sim::SimReport r = s.run();
        return render(r, s.simulator().trace());
    };

    sim::Session session(tracedOn(backend));
    session.rebuild(systolicBuilder(a));
    ASSERT_EQ(session.module()->verify(), "");
    const ir::Operation *moduleA = session.module();
    std::set<const ir::Operation *> opsA;
    session.module()->walk([&](ir::Operation *op) { opsA.insert(op); });
    EXPECT_EQ(runPinned(session), refA);

    session.rebuild(systolicBuilder(b));
    EXPECT_EQ(session.module(), moduleA);
    size_t ops = 0, reused = 0;
    session.module()->walk([&](ir::Operation *op) {
        ++ops;
        reused += opsA.count(op);
    });
    // The component structure, the same in both dataflows, lands op
    // for op where A's did.
    EXPECT_GT(4 * reused, ops) << reused << " of " << ops;
    EXPECT_EQ(runPinned(session), refB);
    EXPECT_EQ(runPinned(session), refB);

    // A broken B on A's addresses: the verify memo still remembers
    // A's module op there, and must not take B for it.
    session.rebuild(systolicBuilder(a));
    ASSERT_EQ(session.module()->verify(), "");
    session.rebuild([&](ir::Context &ctx) {
        ir::OwningOpRef m = systolic::buildSystolicModule(ctx, b);
        ir::OpBuilder ob(ctx);
        ob.setInsertionPointToEnd(&m->region(0).front());
        ob.create("bogus.op", {}, {});
        return m;
    });
    EXPECT_EQ(session.module(), moduleA);
    EXPECT_EQ(session.module()->verify(),
              "unregistered operation 'bogus.op'");
}

TEST(SimSession, RewoundAddressesAreInvisibleInterp)
{
    expectRewoundAddressesInvisible(sim::Backend::Interp);
}

TEST(SimSession, RewoundAddressesAreInvisibleCompiled)
{
    expectRewoundAddressesInvisible(sim::Backend::Compiled);
}

/**
 * A run past the op budget throws SimError and fails only itself: the
 * session then runs its next module, and its pinned one, exactly like a
 * fresh Simulator. The budget is the small run's own op count, so the
 * small run ends exactly at it.
 */
void
expectOpBudgetFailsOnlyTheRun(sim::Backend backend)
{
    scalesim::Config small;
    small.ah = small.aw = 2;
    scalesim::Config big;
    big.ah = big.aw = 4;
    const std::string smallRef = freshRun(small, backend);

    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto smallModule = systolic::buildSystolicModule(ctx, small);
    sim::EngineOptions opts = tracedOn(backend);
    opts.maxOps = sim::Simulator(opts).simulate(smallModule.get()).opsExecuted;

    sim::Session session(opts);
    auto runPinned = [&] {
        sim::SimReport r = session.run();
        return render(r, session.simulator().trace());
    };
    session.rebuild(systolicBuilder(big));
    try {
        session.run();
        ADD_FAILURE() << "the 4x4 run fit a 2x2 run's op budget";
    } catch (const sim::SimError &e) {
        EXPECT_NE(std::string(e.what()).find("op budget exceeded"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(session.runsCompleted(), 0u);

    session.rebuild(systolicBuilder(small));
    EXPECT_EQ(runPinned(), smallRef);
    EXPECT_EQ(runPinned(), smallRef);

    // A warm session whose simulator threw in between pinned runs.
    auto bigModule = systolic::buildSystolicModule(session.context(), big);
    EXPECT_THROW(session.simulator().simulate(bigModule.get()),
                 sim::SimError);
    EXPECT_EQ(runPinned(), smallRef);
    EXPECT_EQ(session.runsCompleted(), 3u);
}

TEST(SimSession, OpBudgetFailsOnlyTheRunInterp)
{
    expectOpBudgetFailsOnlyTheRun(sim::Backend::Interp);
}

TEST(SimSession, OpBudgetFailsOnlyTheRunCompiled)
{
    expectOpBudgetFailsOnlyTheRun(sim::Backend::Compiled);
}

/** A launch that reads a stream nobody writes, awaited by the host. */
ir::OwningOpRef
blockedReadModule(ir::Context &ctx)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    auto stream = b.create<equeue::CreateStreamOp>(32u);
    auto proc = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b.create<equeue::ControlStartOp>();
    auto launch = b.create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{stream->result(0)}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(b);
        equeue::LaunchOp l(launch.op());
        b.setInsertionPointToEnd(&l.body());
        b.create<equeue::StreamReadOp>(l.body().argument(0), int64_t{1},
                                       32u, ir::Value());
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});
    return module;
}

/**
 * A run that deadlocks fails only itself, like one past the op budget:
 * it throws the deadlock SimError, does not count, and the session
 * then runs its next module exactly like a fresh Simulator.
 */
void
expectDeadlockFailsOnlyTheRun(sim::Backend backend)
{
    scalesim::Config small;
    small.ah = small.aw = 2;
    const std::string smallRef = freshRun(small, backend);

    sim::Session session(tracedOn(backend));
    session.rebuild(blockedReadModule);
    try {
        session.run();
        ADD_FAILURE() << "a blocked read finished";
    } catch (const sim::SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Deadlock) << e.what();
    }
    EXPECT_EQ(session.runsCompleted(), 0u);

    session.rebuild(systolicBuilder(small));
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(render(session.run(), session.simulator().trace()),
                  smallRef);
}

TEST(SimSession, DeadlockFailsOnlyTheRunInterp)
{
    expectDeadlockFailsOnlyTheRun(sim::Backend::Interp);
}

TEST(SimSession, DeadlockFailsOnlyTheRunCompiled)
{
    expectDeadlockFailsOnlyTheRun(sim::Backend::Compiled);
}

/** A module whose host runs one bare op @p name, built in a context
 *  that tolerates unregistered ops only when @p allow_unregistered. */
sim::Session::BuildFn
oneOpModule(std::string name, bool allow_unregistered)
{
    return [=](ir::Context &ctx) {
        ctx.setAllowUnregistered(allow_unregistered);
        ir::OwningOpRef module = ir::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
        b.create(name, {}, {});
        return module;
    };
}

/** A host that asks a one-processor component for a child it lacks. */
ir::OwningOpRef
missingChildModule(ir::Context &ctx)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    auto proc = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto comp = b.create<equeue::CreateCompOp>(
        std::string("pe"), std::vector<ir::Value>{proc->result(0)});
    b.create<equeue::GetCompOp>(comp->result(0), std::string("nosuch"),
                                proc->result(0).type());
    return module;
}

/** A host that creates a memory of a kind no factory registered. */
ir::OwningOpRef
unknownMemoryModule(ir::Context &ctx)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    b.create<equeue::CreateMemOp>(std::string("Bogus"),
                                  std::vector<int64_t>{64}, 32u, 1u);
    return module;
}

/** A host that calls an op function nobody registered. */
ir::OwningOpRef
missingOpFunctionModule(ir::Context &ctx)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    b.create<equeue::ExternOp>(std::string("nosuch_fn"),
                               std::vector<ir::Value>{},
                               std::vector<ir::Type>{});
    return module;
}

/**
 * A module the engine cannot run fails only its run, like one past the
 * op budget: each condition throws the simulation_failed SimError
 * naming the op or component, does not count, and the session then
 * runs its next module exactly like a fresh Simulator.
 */
void
expectSimulationFailsOnlyTheRun(sim::Backend backend)
{
    scalesim::Config small;
    small.ah = small.aw = 2;
    const std::string smallRef = freshRun(small, backend);
    struct BadModule {
        const char *condition;
        sim::Session::BuildFn build;
        const char *named; ///< what the message must name
    };
    const BadModule cases[] = {
        {"verification failed", oneOpModule("test.bogus", false),
         "test.bogus"},
        {"op without a handler", oneOpModule("test.bogus", true),
         "test.bogus"},
        {"unsupported arith op", oneOpModule("arith.bogus", true),
         "arith.bogus"},
        {"missing subcomponent", missingChildModule, "nosuch"},
        {"unknown memory kind", unknownMemoryModule, "Bogus"},
        {"missing op function", missingOpFunctionModule, "nosuch_fn"},
    };

    sim::Session session(tracedOn(backend));
    for (const BadModule &bad : cases) {
        SCOPED_TRACE(bad.condition);
        session.rebuild(bad.build);
        try {
            session.run();
            ADD_FAILURE() << "the run finished";
        } catch (const sim::SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::SimulationFailed) << e.what();
            EXPECT_NE(std::string(e.what()).find(bad.named),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(session.runsCompleted(), 0u);

        session.rebuild(systolicBuilder(small));
        for (int i = 0; i < 2; ++i)
            EXPECT_EQ(render(session.run(), session.simulator().trace()),
                      smallRef);
    }
}

TEST(SimSession, SimulationFailedFailsOnlyTheRunInterp)
{
    expectSimulationFailsOnlyTheRun(sim::Backend::Interp);
}

TEST(SimSession, SimulationFailedFailsOnlyTheRunCompiled)
{
    expectSimulationFailsOnlyTheRun(sim::Backend::Compiled);
}

/** A launch that reads an allocated cell before writing 7 into it. */
ir::OwningOpRef
readBeforeWriteModule(ir::Context &ctx)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    auto proc = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto mem = b.create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{64}, 32u, 1u);
    auto buf = b.create<equeue::AllocOp>(mem->result(0),
                                         std::vector<int64_t>{4}, 32u);
    auto start = b.create<equeue::ControlStartOp>();
    auto launch = b.create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{buf->result(0)}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(b);
        equeue::LaunchOp l(launch.op());
        b.setInsertionPointToEnd(&l.body());
        ir::Value cell = l.body().argument(0);
        auto idx = b.create<arith::ConstantOp>(int64_t{2}, ctx.i32Type());
        auto seven = b.create<arith::ConstantOp>(int64_t{7}, ctx.i32Type());
        auto old = b.create<equeue::ReadOp>(
            cell, ir::Value(), std::vector<ir::Value>{idx->result(0)});
        b.create<equeue::ExternOp>(std::string("probe"),
                                   std::vector<ir::Value>{old->result(0)},
                                   std::vector<ir::Type>{});
        b.create<equeue::WriteOp>(seven->result(0), cell, ir::Value(),
                                  std::vector<ir::Value>{idx->result(0)});
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});
    return module;
}

TEST(SimSession, ReusedBuffersStartZeroed)
{
    for (sim::Backend backend :
         {sim::Backend::Interp, sim::Backend::Compiled}) {
        sim::EngineOptions opts;
        opts.backend = backend;
        sim::Session session(opts);
        std::vector<int64_t> probed;
        session.simulator().opFunctions().registerOp(
            "probe", [&](const sim::OpCall &call) {
                probed.push_back(call.args[0].asInt());
                return sim::OpFnResult{};
            });
        session.rebuild(readBeforeWriteModule);
        for (int i = 0; i < 3; ++i)
            session.run();
        EXPECT_EQ(probed, (std::vector<int64_t>{0, 0, 0}));
    }
}

} // namespace
