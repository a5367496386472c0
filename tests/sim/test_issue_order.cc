/**
 * @file
 * Issue attempts at the edges of a cycle. A processor has at most one
 * issue attempt pending; one is requested when a launch is enqueued,
 * when the queue head's dependencies complete, and when a launch
 * finishes with events still queued. Attempts fire in the order they
 * are requested. Three same-cycle shapes are pinned, report and trace,
 * on both backends:
 *  - zero-cycle launches queued back to back on one processor;
 *  - a launch finishing on P in the cycle in which another exec,
 *    resumed earlier in that cycle, launches onto P;
 *  - a launch enqueued on a busy P that is freed later in that cycle.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "serve/protocol.hh"
#include "sim/engine.hh"

namespace {

using namespace eq;

/** Builds one test module; the launch helpers insert at the builder's
 *  current point, so nested launches are built inside a body. */
class Shape {
  public:
    Shape()
    {
        ir::registerAllDialects(ctx);
        module = ir::createModule(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
    }

    ir::Value
    proc()
    {
        return b.create<equeue::CreateProcOp>(std::string("ARMr5"))
            ->result(0);
    }

    ir::Value start() { return b.create<equeue::ControlStartOp>()->result(0); }

    /** A launch on @p p after @p deps whose body runs @p cycles 1-cycle
     *  adds, then @p then (building more of the body), then returns. */
    template <typename Then>
    ir::Value
    launch(std::vector<ir::Value> deps, ir::Value p, int cycles, Then &&then)
    {
        auto op = b.create<equeue::LaunchOp>(std::move(deps), p,
                                             std::vector<ir::Value>{},
                                             std::vector<ir::Type>{});
        ir::OpBuilder::InsertionGuard g(b);
        b.setInsertionPointToEnd(&equeue::LaunchOp(op.op()).body());
        ir::Value one =
            b.create<arith::ConstantOp>(int64_t{1}, ctx.i32Type())->result(0);
        ir::Value acc = one;
        for (int i = 0; i < cycles; ++i)
            acc = b.create<arith::AddIOp>(acc, one)->result(0);
        then();
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
        return op->result(0);
    }

    ir::Value
    launch(std::vector<ir::Value> deps, ir::Value p, int cycles)
    {
        return launch(std::move(deps), p, cycles, [] {});
    }

    void
    await(std::vector<ir::Value> events)
    {
        b.create<equeue::AwaitOp>(std::move(events));
    }

    /** The report (without wall time and dispatch count, which differs
     *  between backends by design) and the trace, one record per
     *  "processor:op@start+cycles" word in record order. */
    std::pair<std::string, std::string>
    run(sim::Backend backend)
    {
        sim::EngineOptions opts;
        opts.backend = backend;
        opts.enableTrace = true;
        sim::Simulator sim(opts);
        sim::SimReport rep = sim.simulate(module.get());
        EXPECT_EQ(sim.pendingEvents(), 0u);
        rep.dispatchCount = 0;
        std::string trace;
        for (const sim::TraceEvent &ev : sim.trace().events())
            trace += (trace.empty() ? "" : " ") + ev.tid + ":" + ev.name +
                     "@" + std::to_string(ev.ts) + "+" +
                     std::to_string(ev.dur);
        return {serve::reportToJson(rep, /*include_wall=*/false).dump(),
                trace};
    }

    /** Both backends give @p report and @p trace. */
    void
    expect(const std::string &report, const std::string &trace)
    {
        for (sim::Backend backend :
             {sim::Backend::Interp, sim::Backend::Compiled}) {
            const auto got = run(backend);
            EXPECT_EQ(got.first, report);
            EXPECT_EQ(got.second, trace);
        }
    }

    ir::Context ctx;
    ir::OwningOpRef module;
    ir::OpBuilder b{ctx};
};

TEST(IssueOrder, ZeroCycleLaunchesBackToBack)
{
    // Two empty launches, then a 2-cycle one, queue on P; a 2-cycle
    // launch on Q is enqueued after them. The enqueues request one
    // attempt for P and one for Q. Each empty launch finishes inside
    // the attempt that issued it and requests the next, so P's third
    // launch issues after Q's.
    Shape s;
    ir::Value p = s.proc(), q = s.proc();
    ir::Value go = s.start();
    ir::Value a = s.launch({go}, p, 0);
    ir::Value c = s.launch({go}, p, 0);
    ir::Value d = s.launch({go}, p, 2);
    ir::Value w = s.launch({go}, q, 2);
    s.await({a, c, d, w});
    s.expect(
        "{\"cycles\":2,\"events\":5,\"ops\":20,\"dispatches\":0,"
        "\"connections\":[],\"memories\":[],"
        "\"processors\":[{\"name\":\"proc0\",\"kind\":\"ARMr5\","
        "\"busy_cycles\":2,\"ops\":2,\"utilization\":1},"
        "{\"name\":\"proc1\",\"kind\":\"ARMr5\",\"busy_cycles\":2,"
        "\"ops\":2,\"utilization\":1}]}",
        "proc1:arith.addi@0+1 proc0:arith.addi@0+1 "
        "proc1:arith.addi@1+1 proc0:arith.addi@1+1");
}

TEST(IssueOrder, FinishMeetsALaunchFromAnExecResumedFirst)
{
    // X on R, issued first, runs 3 cycles and then launches L onto P.
    // P's own 3-cycle launch finishes in that cycle, after X resumed:
    // L's attempt, requested by X, issues it; the finish requests none.
    Shape s;
    ir::Value r = s.proc(), p = s.proc(), q = s.proc();
    ir::Value go = s.start();
    ir::Value x = s.launch({go}, r, 3, [&] {
        ir::Value inner = s.start();
        s.launch({inner}, p, 2);
    });
    ir::Value l0 = s.launch({go}, p, 3);
    ir::Value w = s.launch({go}, q, 4);
    s.await({x, l0, w});
    s.await({});
    s.expect(
        "{\"cycles\":5,\"events\":6,\"ops\":31,\"dispatches\":0,"
        "\"connections\":[],\"memories\":[],"
        "\"processors\":[{\"name\":\"proc0\",\"kind\":\"ARMr5\","
        "\"busy_cycles\":3,\"ops\":3,"
        "\"utilization\":0.59999999999999998},{\"name\":\"proc1\","
        "\"kind\":\"ARMr5\",\"busy_cycles\":5,\"ops\":5,"
        "\"utilization\":1},{\"name\":\"proc2\",\"kind\":\"ARMr5\","
        "\"busy_cycles\":4,\"ops\":4,"
        "\"utilization\":0.80000000000000004}]}",
        "proc0:arith.addi@0+1 proc1:arith.addi@0+1 "
        "proc2:arith.addi@0+1 proc0:arith.addi@1+1 "
        "proc1:arith.addi@1+1 proc2:arith.addi@1+1 "
        "proc0:arith.addi@2+1 proc1:arith.addi@2+1 "
        "proc2:arith.addi@2+1 proc2:arith.addi@3+1 "
        "proc1:arith.addi@3+1 proc1:arith.addi@4+1");
}

TEST(IssueOrder, EnqueueOnABusyProcessorFreedLaterInTheCycle)
{
    // X on R launches L onto P at cycle 3, while P's launch waits for
    // N on S. N's dependency M finishes in the same cycle, after X, so
    // the attempt it requests for S comes after L's attempt, which
    // finds P busy. N is empty: it finishes at once, P's launch
    // returns, and the finish requests the attempt that issues L.
    Shape s;
    ir::Value r = s.proc(), p = s.proc(), t = s.proc(), u = s.proc();
    ir::Value go = s.start();
    ir::Value x = s.launch({go}, r, 3, [&] {
        ir::Value inner = s.start();
        s.launch({inner}, p, 2);
    });
    ir::Value l0 = s.launch({go}, p, 0, [&] {
        ir::Value inner = s.start();
        ir::Value m = s.launch({inner}, t, 3);
        ir::Value n = s.launch({m}, u, 0);
        s.await({n});
    });
    s.await({x, l0});
    s.await({});
    s.expect(
        "{\"cycles\":5,\"events\":8,\"ops\":33,\"dispatches\":0,"
        "\"connections\":[],\"memories\":[],"
        "\"processors\":[{\"name\":\"proc0\",\"kind\":\"ARMr5\","
        "\"busy_cycles\":3,\"ops\":3,"
        "\"utilization\":0.59999999999999998},{\"name\":\"proc1\","
        "\"kind\":\"ARMr5\",\"busy_cycles\":2,\"ops\":2,"
        "\"utilization\":0.40000000000000002},{\"name\":\"proc2\","
        "\"kind\":\"ARMr5\",\"busy_cycles\":3,\"ops\":3,"
        "\"utilization\":0.59999999999999998},{\"name\":\"proc3\","
        "\"kind\":\"ARMr5\",\"busy_cycles\":0,\"ops\":0,"
        "\"utilization\":0}]}",
        "proc0:arith.addi@0+1 proc2:arith.addi@0+1 "
        "proc0:arith.addi@1+1 proc2:arith.addi@1+1 "
        "proc0:arith.addi@2+1 proc2:arith.addi@2+1 "
        "proc1:arith.addi@3+1 proc1:arith.addi@4+1");
}

} // namespace
