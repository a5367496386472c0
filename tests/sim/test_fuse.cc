/**
 * @file
 * Superinstruction fusion (sim/compile.cc) unit tests: known PE-body
 * sequences must actually fuse (dispatchCount strictly below
 * opsExecuted, which is what an op-by-op dispatch would count), while
 * every observable outcome — cycles, per-processor busy/ops,
 * per-memory traffic, trace streams — stays byte-identical between the
 * interpreter and the compiled backend. Also covers the escape
 * analysis (a cell read whose value leaves the launch body keeps its
 * materialized tensor), the affine load/store + scalar-arith fusion
 * with constant index folding, fused-program caching under
 * sim::Session, and the shapes that form one-element groups: operand
 * chains deeper than kMaxFusedHops, a Return after a non-fusible
 * record, and lone records between loop records.
 */

#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "passes/pipeline.hh"
#include "scalesim/scalesim.hh"
#include "sim/compile.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"
#include "testutil.hh"

namespace {

using namespace eq;
using ir::Value;

struct Outcome {
    sim::SimReport report;
    std::vector<std::string> trace;
};

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
expectIdentical(const Outcome &a, const Outcome &b)
{
    EXPECT_EQ(a.report.cycles, b.report.cycles);
    EXPECT_EQ(a.report.eventsExecuted, b.report.eventsExecuted);
    EXPECT_EQ(a.report.opsExecuted, b.report.opsExecuted);
    ASSERT_EQ(a.report.processors.size(), b.report.processors.size());
    for (size_t i = 0; i < a.report.processors.size(); ++i) {
        EXPECT_EQ(a.report.processors[i].busyCycles,
                  b.report.processors[i].busyCycles);
        EXPECT_EQ(a.report.processors[i].opsExecuted,
                  b.report.processors[i].opsExecuted);
    }
    ASSERT_EQ(a.report.memories.size(), b.report.memories.size());
    for (size_t i = 0; i < a.report.memories.size(); ++i) {
        EXPECT_EQ(a.report.memories[i].bytesRead,
                  b.report.memories[i].bytesRead);
        EXPECT_EQ(a.report.memories[i].bytesWritten,
                  b.report.memories[i].bytesWritten);
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i)
        ASSERT_EQ(a.trace[i], b.trace[i])
            << "first trace divergence at event " << i;
}

Outcome
simulate(ir::Operation *module, sim::Backend backend)
{
    sim::EngineOptions opts;
    opts.enableTrace = true;
    opts.backend = backend;
    sim::Simulator s(opts);
    Outcome out;
    out.report = s.simulate(module);
    out.trace = renderTrace(s.trace());
    return out;
}

class FuseTest : public test::RegisteredModuleTest {
  protected:
    Value
    allocCell(Value mem)
    {
        return b
            ->create<equeue::AllocOp>(mem, std::vector<int64_t>{1}, 32u)
            ->result(0);
    }

    /** Run the module on both backends and assert the outcomes are
     *  identical; returns the compiled run's {ops, dispatches}. */
    std::pair<uint64_t, uint64_t>
    expectMatrixIdentical()
    {
        Outcome interp = simulate(module.get(), sim::Backend::Interp);
        Outcome compiled = simulate(module.get(), sim::Backend::Compiled);
        expectIdentical(interp, compiled);
        EXPECT_EQ(interp.report.dispatchCount,
                  interp.report.opsExecuted);
        EXPECT_LE(compiled.report.dispatchCount,
                  compiled.report.opsExecuted);
        return {compiled.report.opsExecuted,
                compiled.report.dispatchCount};
    }

    /** A launch of @p proc depending on @p dep, with no captures and
     *  no results; the builder is parked in its body. */
    ir::Block &
    openLaunch(Value dep, Value proc,
               std::vector<ir::Type> results = {})
    {
        auto launch = b->create<equeue::LaunchOp>(
            std::vector<Value>{dep}, proc, std::vector<Value>{},
            std::move(results));
        lastLaunch = launch.op();
        ir::Block &body = equeue::LaunchOp(launch.op()).body();
        b->setInsertionPointToEnd(&body);
        return body;
    }

    ir::Operation *lastLaunch = nullptr;
};

/** The systolic stage-R shape: Read a, Read stat, Read acc, mac,
 *  Write res, Write a — one launch per PE step. The six-record body
 *  run plus its Return must collapse to a single superinstruction. */
TEST_F(FuseTest, PeBodyReadMacWriteFuses)
{
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("Register"), std::vector<int64_t>{64}, 32u, 8u);
    auto proc = b->create<equeue::CreateProcOp>(std::string("MAC"));
    Value a_in = allocCell(mem->result(0));
    Value stat = allocCell(mem->result(0));
    Value acc = allocCell(mem->result(0));
    Value out_acc = allocCell(mem->result(0));
    Value out_a = allocCell(mem->result(0));

    auto start = b->create<equeue::ControlStartOp>();
    const int kLaunches = 3;
    Value dep = start->result(0);
    for (int i = 0; i < kLaunches; ++i) {
        auto launch = b->create<equeue::LaunchOp>(
            std::vector<Value>{dep}, proc->result(0),
            std::vector<Value>{a_in, stat, acc, out_acc, out_a},
            std::vector<ir::Type>{});
        {
            ir::OpBuilder::InsertionGuard g(*b);
            equeue::LaunchOp l(launch.op());
            b->setInsertionPointToEnd(&l.body());
            Value ra = b->create<equeue::ReadOp>(l.body().argument(0),
                                                 Value(),
                                                 std::vector<Value>{})
                           ->result(0);
            Value rs = b->create<equeue::ReadOp>(l.body().argument(1),
                                                 Value(),
                                                 std::vector<Value>{})
                           ->result(0);
            Value rc = b->create<equeue::ReadOp>(l.body().argument(2),
                                                 Value(),
                                                 std::vector<Value>{})
                           ->result(0);
            auto res = b->create<equeue::ExternOp>(
                std::string("mac"), std::vector<Value>{ra, rs, rc},
                std::vector<ir::Type>{ctx.i32Type()});
            b->create<equeue::WriteOp>(res->result(0),
                                       l.body().argument(3), Value(),
                                       std::vector<Value>{});
            b->create<equeue::WriteOp>(ra, l.body().argument(4), Value(),
                                       std::vector<Value>{});
            b->create<equeue::ReturnOp>(std::vector<Value>{});
        }
        dep = launch->result(0);
    }
    b->create<equeue::AwaitOp>(std::vector<Value>{dep});

    auto [ops, dispatches] = expectMatrixIdentical();
    // Each launch body (read, read, read, mac, write, write, return)
    // collapses from 7 ops to 1 dispatch; the top-level control_start
    // + 3 launches + await run collapses from 5 to 1.
    EXPECT_EQ(ops - dispatches, uint64_t(kLaunches) * 6 + 4);
}

/** Read→Write copy pairs (the systolic stage-W shape) fuse too. */
TEST_F(FuseTest, CellCopyPairsFuse)
{
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("Register"), std::vector<int64_t>{64}, 32u, 8u);
    auto proc = b->create<equeue::CreateProcOp>(std::string("MAC"));
    Value src = allocCell(mem->result(0));
    Value dst = allocCell(mem->result(0));
    Value src2 = allocCell(mem->result(0));
    Value dst2 = allocCell(mem->result(0));

    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<Value>{start->result(0)}, proc->result(0),
        std::vector<Value>{src, dst, src2, dst2},
        std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(launch.op());
        b->setInsertionPointToEnd(&l.body());
        Value v = b->create<equeue::ReadOp>(l.body().argument(0), Value(),
                                            std::vector<Value>{})
                      ->result(0);
        b->create<equeue::WriteOp>(v, l.body().argument(1), Value(),
                                   std::vector<Value>{});
        Value v2 = b->create<equeue::ReadOp>(l.body().argument(2),
                                             Value(),
                                             std::vector<Value>{})
                       ->result(0);
        b->create<equeue::WriteOp>(v2, l.body().argument(3), Value(),
                                   std::vector<Value>{});
        b->create<equeue::ReturnOp>(std::vector<Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<Value>{launch->result(0)});

    auto [ops, dispatches] = expectMatrixIdentical();
    // Body read/write/read/write/return: 5 ops -> 1 dispatch; top-level
    // control_start + launch + await: 3 -> 1.
    EXPECT_EQ(ops - dispatches, uint64_t(4 + 2));
}

/** A cell read whose value escapes the launch body (returned to the
 *  creator) must keep its materialized tensor; outcomes still match
 *  the interpreter exactly and the remaining body records still
 *  fuse. */
TEST_F(FuseTest, EscapingReadStaysEquivalent)
{
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("Register"), std::vector<int64_t>{64}, 32u, 8u);
    auto proc = b->create<equeue::CreateProcOp>(std::string("MAC"));
    Value src = allocCell(mem->result(0));
    Value other = allocCell(mem->result(0));
    Value sink = allocCell(mem->result(0));

    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<Value>{start->result(0)}, proc->result(0),
        std::vector<Value>{src, other},
        std::vector<ir::Type>{ctx.i32Type()});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(launch.op());
        b->setInsertionPointToEnd(&l.body());
        Value v = b->create<equeue::ReadOp>(l.body().argument(0), Value(),
                                            std::vector<Value>{})
                      ->result(0);
        b->create<equeue::WriteOp>(v, l.body().argument(1), Value(),
                                   std::vector<Value>{});
        b->create<equeue::ReturnOp>(std::vector<Value>{v});
    }
    b->create<equeue::AwaitOp>(std::vector<Value>{launch->result(0)});
    // The creator consumes the escaped value: identical bytes/cycles
    // on every mode proves the fused body did not change its type
    // semantics.
    b->create<equeue::WriteOp>(launch->result(1), sink, Value(),
                               std::vector<Value>{});

    auto [ops, dispatches] = expectMatrixIdentical();
    EXPECT_LT(dispatches, ops);
}

/** Affine-stage lowering: scalar-arith + load/store bodies (with
 *  constant index operands where the lowering produced them) fuse and
 *  stay equivalent to the interpreter. */
TEST_F(FuseTest, AffineLoweredConvFusesAndMatches)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 4;
    cfg.n = 1;
    cfg.fh = cfg.fw = 2;
    auto conv = passes::buildConvModule(ctx, cfg);
    std::string diag =
        passes::lowerConvModule(conv.get(), passes::Stage::Affine, cfg);
    ASSERT_TRUE(diag.empty()) << diag;

    Outcome interp = simulate(conv.get(), sim::Backend::Interp);
    Outcome compiled = simulate(conv.get(), sim::Backend::Compiled);
    expectIdentical(interp, compiled);
    EXPECT_LT(compiled.report.dispatchCount,
              compiled.report.opsExecuted);
}

/** Session caches the fused programs like everything else:
 *  repeated runs are identical, including the dispatch count. */
TEST_F(FuseTest, SessionReusesFusedPrograms)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 4;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    sim::EngineOptions opts;
    opts.backend = sim::Backend::Compiled;
    sim::Session session(opts);
    session.rebuild([&](ir::Context &c) {
        return systolic::buildSystolicModule(c, cfg);
    });
    auto first = session.run();
    auto second = session.run();
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.opsExecuted, second.opsExecuted);
    EXPECT_EQ(first.dispatchCount, second.dispatchCount);
    EXPECT_LT(first.dispatchCount, first.opsExecuted);
}

/** The report text surfaces the dispatch count exactly when it
 *  differs from opsExecuted — compiled (fused) runs show it,
 *  interpreter runs stay unchanged. */
TEST_F(FuseTest, ReportPrintsDispatchesOnlyWhenFused)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 4;
    cfg.n = 1;
    cfg.fh = cfg.fw = 2;
    auto module = systolic::buildSystolicModule(ctx, cfg);

    auto render = [&](sim::Backend backend) {
        sim::EngineOptions opts;
        opts.backend = backend;
        sim::Simulator s(opts);
        auto rep = s.simulate(module.get());
        std::ostringstream os;
        rep.print(os);
        return os.str();
    };
    EXPECT_EQ(render(sim::Backend::Interp).find("dispatches:"),
              std::string::npos);
    EXPECT_NE(render(sim::Backend::Compiled).find("dispatches:"),
              std::string::npos);
}

/** Launches nested deeper than kMaxFusedHops whose bodies use
 *  top-level values (their processor, two cells) directly: the
 *  group-entry level cache cannot cover the deepest operands, so
 *  execFused walks the rest of the env chain for them. Each level runs
 *  on its own processor (a parent awaiting a child on its own
 *  processor would never finish). */
TEST_F(FuseTest, LaunchChainDeeperThanMaxFusedHops)
{
    const unsigned kDepth = sim::kMaxFusedHops + 3;
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("Register"), std::vector<int64_t>{64}, 32u, 8u);
    std::vector<Value> procs;
    for (unsigned d = 0; d < kDepth; ++d)
        procs.push_back(
            b->create<equeue::CreateProcOp>(std::string("MAC"))
                ->result(0));
    Value src = allocCell(mem->result(0));
    Value dst = allocCell(mem->result(0));
    Value dep = b->create<equeue::ControlStartOp>()->result(0);

    std::vector<ir::Operation *> launches;
    for (unsigned d = 0; d < kDepth; ++d) {
        openLaunch(dep, procs[d]);
        launches.push_back(lastLaunch);
        dep = b->create<equeue::ControlStartOp>()->result(0);
    }
    // Innermost body: kDepth hops up to the cells.
    Value v = b->create<equeue::ReadOp>(src, Value(),
                                        std::vector<Value>{})
                  ->result(0);
    b->create<equeue::WriteOp>(v, dst, Value(), std::vector<Value>{});
    b->create<equeue::ReturnOp>(std::vector<Value>{});
    // Close each enclosing body: await its child, then return.
    for (unsigned d = kDepth; d-- > 0;) {
        ir::Operation *launch = launches[d];
        b->setInsertionPointAfter(launch);
        b->create<equeue::AwaitOp>(
            std::vector<Value>{launch->result(0)});
        if (d > 0)
            b->create<equeue::ReturnOp>(std::vector<Value>{});
    }

    auto [ops, dispatches] = expectMatrixIdentical();
    EXPECT_LT(dispatches, ops);
}

/** A launch body whose Return follows a loop (a non-fusible ForEnd):
 *  the Return becomes a one-element group and still publishes the
 *  launch result. */
TEST_F(FuseTest, ReturnAfterNonFusibleRecord)
{
    Value proc =
        b->create<equeue::CreateProcOp>(std::string("MAC"))->result(0);
    Value start = b->create<equeue::ControlStartOp>()->result(0);
    ir::Block &body = openLaunch(start, proc, {ctx.i32Type()});
    ir::Operation *launch = lastLaunch;
    Value seven =
        b->create<arith::ConstantOp>(int64_t{7}, ctx.i32Type())
            ->result(0);
    auto loop = b->create<affine::ForOp>(int64_t{0}, int64_t{3},
                                         int64_t{1});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        affine::ForOp f(loop.op());
        b->setInsertionPointToEnd(&f.body());
        b->create<arith::AddIOp>(f.inductionVar(), seven);
        b->create<affine::YieldOp>(std::vector<Value>{});
    }
    b->setInsertionPointToEnd(&body);
    b->create<equeue::ReturnOp>(std::vector<Value>{seven});
    b->setInsertionPointToEnd(&this->body());
    b->create<equeue::AwaitOp>(std::vector<Value>{launch->result(0)});
    b->create<arith::MulIOp>(launch->result(1), launch->result(1));

    expectMatrixIdentical();
}

/** Lone fusible records sandwiched between loop records, at every
 *  nesting level: each becomes a one-element group. */
TEST_F(FuseTest, SingletonsBetweenLoopRecords)
{
    Value proc =
        b->create<equeue::CreateProcOp>(std::string("MAC"))->result(0);
    Value start = b->create<equeue::ControlStartOp>()->result(0);
    ir::Block &body = openLaunch(start, proc);
    ir::Operation *launch = lastLaunch;
    auto emitLoop = [&](int64_t trips, auto &&inner) {
        auto loop = b->create<affine::ForOp>(int64_t{0}, trips,
                                             int64_t{1});
        ir::OpBuilder::InsertionGuard g(*b);
        affine::ForOp f(loop.op());
        b->setInsertionPointToEnd(&f.body());
        inner(f.inductionVar());
        b->create<affine::YieldOp>(std::vector<Value>{});
    };
    emitLoop(3, [&](Value i) {
        // ForBegin, AddI, ForBegin: a singleton between loop records.
        Value twice = b->create<arith::AddIOp>(i, i)->result(0);
        emitLoop(2, [&](Value j) {
            // ForBegin, MulI, Yield.
            b->create<arith::MulIOp>(twice, j);
        });
        // ForEnd, SubI, Yield.
        b->create<arith::SubIOp>(twice, i);
    });
    // Between two top-level loops of the body.
    b->create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
    emitLoop(2, [&](Value k) { b->create<arith::AddIOp>(k, k); });
    b->setInsertionPointToEnd(&body);
    b->create<equeue::ReturnOp>(std::vector<Value>{});
    b->setInsertionPointToEnd(&this->body());
    b->create<equeue::AwaitOp>(std::vector<Value>{launch->result(0)});

    auto [ops, dispatches] = expectMatrixIdentical();
    EXPECT_LT(dispatches, ops);
}

} // namespace
