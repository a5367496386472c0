/**
 * @file
 * Event retirement: an event's payload (dependency, result and wakeup
 * lists, env reference) returns to the engine's pool when the event
 * completes, and only its 8-byte completion word lives on. Awaits,
 * control_and/or and issue gating that name an event after its payload
 * was reused read that word; the memcpy completion path frees and pokes
 * the right DMA; the pool's high-water mark follows the live events,
 * not the run length, whether a run simulates every loop iteration or
 * fast-forwards most of them; and events that never complete stay
 * counted as pending (the quiescence signal).
 */

#include <gtest/gtest.h>

#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "scalesim/scalesim.hh"
#include "sim/engine.hh"
#include "sim/opfunctions.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

const sim::Backend kBackends[] = {sim::Backend::Interp,
                                  sim::Backend::Compiled};

sim::Simulator
makeSim(sim::Backend backend)
{
    sim::EngineOptions opts;
    opts.backend = backend;
    return sim::Simulator(opts);
}

class EventRetireTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        ir::registerAllDialects(ctx);
        module = ir::createModule(ctx);
        b = std::make_unique<ir::OpBuilder>(ctx);
        b->setInsertionPointToEnd(&module->region(0).front());
    }

    /** Launch a block of @p busy_cycles 1-cycle ops on @p proc. */
    ir::Value
    busyLaunch(ir::Value dep, ir::Value proc, int busy_cycles)
    {
        auto launch = b->create<equeue::LaunchOp>(
            std::vector<ir::Value>{dep}, proc, std::vector<ir::Value>{},
            std::vector<ir::Type>{});
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(launch.op());
        b->setInsertionPointToEnd(&l.body());
        auto c = b->create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
        ir::Value acc = c->result(0);
        for (int i = 0; i < busy_cycles; ++i)
            acc = b->create<arith::AddIOp>(acc, c->result(0))->result(0);
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
        return launch.op()->result(0);
    }

    void
    await(std::vector<ir::Value> events)
    {
        b->create<equeue::AwaitOp>(std::move(events));
    }

    ir::Context ctx;
    ir::OwningOpRef module;
    std::unique_ptr<ir::OpBuilder> b;
};

TEST_F(EventRetireTest, AwaitAndControlReadRetiredEvents)
{
    auto p0 = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto p1 = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b->create<equeue::ControlStartOp>()->result(0);
    ir::Value l0 = busyLaunch(start, p0->result(0), 3);
    // The top level resumes inside lx's completion, at 4, when l0's
    // payload (freed at 3) is the only free one: l1 takes it over.
    ir::Value lx = busyLaunch(l0, p1->result(0), 1);
    await({lx});
    ir::Value l1 = busyLaunch(start, p0->result(0), 10);
    auto both = b->create<equeue::ControlAndOp>(
        std::vector<ir::Value>{l0, l1});
    // Completes at once, at l0's completion time: read through the
    // payload, l0 would look as pending as l1.
    auto any = b->create<equeue::ControlOrOp>(
        std::vector<ir::Value>{l1, l0});
    ir::Value l3 = busyLaunch(any->result(0), p1->result(0), 2);
    ir::Value l4 = busyLaunch(l0, p1->result(0), 1);
    ir::Value l2 = busyLaunch(both->result(0), p1->result(0), 1);
    await({l0, l2, l3, l4});

    for (sim::Backend backend : kBackends) {
        sim::Simulator s = makeSim(backend);
        sim::SimReport rep = s.simulate(module.get());
        // l3 (4..6) and l4 (6..7) run while l1 does (4..14); then l2
        // (14..15).
        EXPECT_EQ(rep.cycles, 15u) << sim::backendName(backend);
        EXPECT_EQ(rep.eventsExecuted, 9u);
        EXPECT_EQ(s.pendingEvents(), 0u);
        // Eight events took payloads; l1 reused l0's and l3 the or's.
        EXPECT_EQ(s.peakLiveEvents(), 6u);
    }
}

TEST_F(EventRetireTest, MemcpyCompletionFreesItsDma)
{
    auto m0 = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{4096}, 32u, 4u);
    auto m1 = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{4096}, 32u, 4u);
    auto b0 = b->create<equeue::AllocOp>(m0->result(0),
                                         std::vector<int64_t>{64}, 32u);
    auto b1 = b->create<equeue::AllocOp>(m1->result(0),
                                         std::vector<int64_t>{64}, 32u);
    auto dma = b->create<equeue::CreateDmaOp>()->result(0);
    auto start = b->create<equeue::ControlStartOp>()->result(0);
    auto memcpy = [&](ir::Value dep, ir::Value src, ir::Value dst) {
        return b
            ->create<equeue::MemcpyOp>(dep, src, dst, dma, ir::Value())
            ->result(0);
    };
    // 64 words over 4 banks: 16 cycles each, one at a time on the DMA.
    ir::Value mc0 = memcpy(start, b0->result(0), b1->result(0));
    ir::Value mc1 = memcpy(start, b1->result(0), b0->result(0));
    await({mc1});
    // Both payloads are free by now; mc2 reuses one and depends on a
    // retired memcpy.
    ir::Value mc2 = memcpy(mc0, b0->result(0), b1->result(0));
    await({mc0, mc2});

    for (sim::Backend backend : kBackends) {
        sim::Simulator s = makeSim(backend);
        sim::SimReport rep = s.simulate(module.get());
        EXPECT_EQ(rep.cycles, 48u) << sim::backendName(backend);
        EXPECT_EQ(rep.eventsExecuted, 4u);
        EXPECT_EQ(s.pendingEvents(), 0u);
        EXPECT_EQ(s.peakLiveEvents(), 2u);
    }
}

TEST_F(EventRetireTest, BlockedLaunchStaysPending)
{
    auto stream = b->create<equeue::CreateStreamOp>(32u);
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b->create<equeue::ControlStartOp>()->result(0);
    auto reader = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start}, proc->result(0),
        std::vector<ir::Value>{stream->result(0)},
        std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(reader.op());
        b->setInsertionPointToEnd(&l.body());
        // Nobody ever writes the stream.
        b->create<equeue::StreamReadOp>(l.body().argument(0), int64_t{1},
                                        32u, ir::Value());
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::ControlAndOp>(
        std::vector<ir::Value>{start, reader->result(0)});

    for (sim::Backend backend : kBackends) {
        sim::Simulator s = makeSim(backend);
        // The reader and the and over it never complete: the run fails
        // as a deadlock naming them and the stream they wait on.
        try {
            s.simulate(module.get());
            ADD_FAILURE() << "a blocked run finished on "
                          << sim::backendName(backend);
        } catch (const sim::SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::Deadlock);
            EXPECT_STREQ(e.what(),
                         "deadlock: 2 event(s) never completed: "
                         "equeue.launch on proc0, equeue.control_and; "
                         "streams with waiting readers: stream0 (1)")
                << sim::backendName(backend);
        }
        EXPECT_EQ(s.pendingEvents(), 2u) << sim::backendName(backend);

        // A drained run on the same engine starts from an empty pool.
        ir::OwningOpRef ok = ir::createModule(ctx);
        ir::OpBuilder ob(ctx);
        ob.setInsertionPointToEnd(&ok->region(0).front());
        auto start2 = ob.create<equeue::ControlStartOp>();
        ob.create<equeue::AwaitOp>(
            std::vector<ir::Value>{start2->result(0)});
        s.simulate(ok.get());
        EXPECT_EQ(s.pendingEvents(), 0u);
        EXPECT_EQ(s.peakLiveEvents(), 0u);
    }
}

/** What a 4x4 WS array over some filters left in the payload pool. */
struct PoolUse {
    size_t peak = 0;          ///< payloads live at once, at most
    uint64_t events = 0;      ///< events the report counts
    uint64_t skipped = 0;     ///< fast-forwarded loop iterations
};

/**
 * Run a 4x4 WS array over @p n filters on @p backend; also checks that
 * the run drained. With @p in_full, the built-in "mac" is registered
 * again, unchanged: a user-registered built-in bars fast-forward, so
 * the compiled backend simulates every fold as the interpreter does.
 */
PoolUse
poolUseFor(sim::Backend backend, int n, bool in_full)
{
    scalesim::Config cfg;
    cfg.n = n;
    sim::EngineOptions opts;
    opts.backend = backend;
    sim::Session session(opts);
    if (in_full) {
        sim::OpFunctionRegistry &fns = session.simulator().opFunctions();
        fns.registerOp("mac", *fns.find("mac"));
    }
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    });
    PoolUse use;
    use.events = session.run().eventsExecuted;
    EXPECT_EQ(session.simulator().pendingEvents(), 0u);
    use.peak = session.simulator().peakLiveEvents();
    use.skipped = session.simulator().fastForwardedIterations();
    return use;
}

TEST(EventRetire, PeakLiveEventsDoNotGrowWithRunLength)
{
    // Every fold simulated on both backends: the long run executes ten
    // times the events through the same payloads.
    for (sim::Backend backend : kBackends) {
        const PoolUse short_run = poolUseFor(backend, 50, true);
        const PoolUse long_run = poolUseFor(backend, 500, true);
        EXPECT_EQ(short_run.skipped, 0u) << sim::backendName(backend);
        EXPECT_EQ(long_run.skipped, 0u) << sim::backendName(backend);
        EXPECT_GT(long_run.events, 9 * short_run.events);
        EXPECT_EQ(short_run.peak, long_run.peak)
            << sim::backendName(backend);
        EXPECT_GT(short_run.peak, 0u);
        EXPECT_LT(short_run.peak, short_run.events / 10);
    }
}

TEST(EventRetire, FastForwardKeepsPeakLiveEventsFlat)
{
    // The compiled default skips most folds of the long run; what it
    // simulates peaks as a full simulation does.
    const PoolUse full = poolUseFor(sim::Backend::Compiled, 500, true);
    const PoolUse short_run = poolUseFor(sim::Backend::Compiled, 50, false);
    const PoolUse long_run = poolUseFor(sim::Backend::Compiled, 500, false);
    EXPECT_GT(long_run.skipped, 100u);
    EXPECT_EQ(long_run.events, full.events);
    EXPECT_EQ(short_run.peak, long_run.peak);
    EXPECT_EQ(long_run.peak, full.peak);
}

} // namespace
