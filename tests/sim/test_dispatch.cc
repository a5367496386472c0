/**
 * @file
 * The table-driven dispatch layer and dense value environment:
 *  - equeue.op signatures unknown to the engine route through the
 *    OpFunctionRegistry (extensibility, §III-E) via the OpId table;
 *  - dense value-numbered slots handle nested inline regions and reuse
 *    slots across loop iterations;
 *  - Component::addChild rejects duplicate child names instead of
 *    silently overwriting (regression).
 */

#include <gtest/gtest.h>

#include <optional>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "sim/engine.hh"

namespace {

using namespace eq;

class DispatchTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        ir::registerAllDialects(ctx);
        module = ir::createModule(ctx);
        b = std::make_unique<ir::OpBuilder>(ctx);
        b->setInsertionPointToEnd(&module->region(0).front());
    }

    /** Wrap ops built by @p fill into a launch on a fresh ARMr5 core. */
    template <typename Fn>
    void
    buildLaunch(Fn fill)
    {
        auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
        auto start = b->create<equeue::ControlStartOp>();
        auto launch = b->create<equeue::LaunchOp>(
            std::vector<ir::Value>{start->result(0)}, proc->result(0),
            std::vector<ir::Value>{}, std::vector<ir::Type>{});
        {
            ir::OpBuilder::InsertionGuard g(*b);
            equeue::LaunchOp l(launch.op());
            b->setInsertionPointToEnd(&l.body());
            fill();
            b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
        }
        b->create<equeue::AwaitOp>(
            std::vector<ir::Value>{launch->result(0)});
    }

    ir::Context ctx;
    ir::OwningOpRef module;
    std::unique_ptr<ir::OpBuilder> b;
};

TEST_F(DispatchTest, UnknownEqueueOpRoutesToOpFunctionRegistry)
{
    // An equeue.op whose signature no dialect knows: the engine must
    // hand it to the user-registered operation function.
    buildLaunch([&] {
        auto c = b->create<arith::ConstantOp>(int64_t{21}, ctx.i32Type());
        auto ext = b->create<equeue::ExternOp>(
            std::string("double_it"),
            std::vector<ir::Value>{c->result(0)},
            std::vector<ir::Type>{ctx.i32Type()});
        b->create<equeue::ExternOp>(std::string("probe"),
                                    std::vector<ir::Value>{ext->result(0)},
                                    std::vector<ir::Type>{});
    });

    sim::Simulator s;
    std::vector<int64_t> probed;
    s.opFunctions().registerOp("double_it",
                               [](const sim::OpCall &call) {
                                   sim::OpFnResult r;
                                   r.cycles = 3;
                                   r.results.push_back(sim::SimValue::ofInt(
                                       call.args[0].asInt() * 2));
                                   return r;
                               });
    s.opFunctions().registerOp("probe", [&](const sim::OpCall &call) {
        probed.push_back(call.args[0].asInt());
        return sim::OpFnResult{};
    });
    auto rep = s.simulate(module.get());
    ASSERT_EQ(probed.size(), 1u);
    EXPECT_EQ(probed[0], 42);
    // The op function's cycle count occupies the processor.
    EXPECT_GE(rep.cycles, 3u);
}

TEST_F(DispatchTest, DenseEnvHandlesNestedRegionsAndLoopReuse)
{
    // A 2-deep loop nest: every iteration rebinds the same dense slots
    // (induction vars, constants, arith results); the probe observes
    // each iteration's freshly computed value in order.
    buildLaunch([&] {
        auto outer =
            b->create<affine::ForOp>(int64_t{0}, int64_t{4}, int64_t{1});
        ir::OpBuilder::InsertionGuard g(*b);
        affine::ForOp of(outer.op());
        b->setInsertionPointToEnd(&of.body());
        auto inner =
            b->create<affine::ForOp>(int64_t{0}, int64_t{4}, int64_t{1});
        {
            ir::OpBuilder::InsertionGuard g2(*b);
            affine::ForOp inf(inner.op());
            b->setInsertionPointToEnd(&inf.body());
            auto ten =
                b->create<arith::ConstantOp>(int64_t{10}, ctx.i32Type());
            auto scaled = b->create<arith::MulIOp>(of.inductionVar(),
                                                   ten->result(0));
            auto val = b->create<arith::AddIOp>(scaled->result(0),
                                                inf.inductionVar());
            b->create<equeue::ExternOp>(
                std::string("probe"),
                std::vector<ir::Value>{val->result(0)},
                std::vector<ir::Type>{});
            b->create<affine::YieldOp>(std::vector<ir::Value>{});
        }
        b->create<affine::YieldOp>(std::vector<ir::Value>{});
    });

    sim::Simulator s;
    std::vector<int64_t> probed;
    s.opFunctions().registerOp("probe", [&](const sim::OpCall &call) {
        probed.push_back(call.args[0].asInt());
        return sim::OpFnResult{};
    });
    s.simulate(module.get());
    ASSERT_EQ(probed.size(), 16u);
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t j = 0; j < 4; ++j)
            EXPECT_EQ(probed[static_cast<size_t>(i * 4 + j)], i * 10 + j);
}

TEST_F(DispatchTest, DenseEnvSlotsAreStableAcrossRepeatedRuns)
{
    // The same Simulator re-numbers the module on every run; results
    // must not depend on stale numbering from the previous run.
    buildLaunch([&] {
        auto c = b->create<arith::ConstantOp>(int64_t{7}, ctx.i32Type());
        auto sq = b->create<arith::MulIOp>(c->result(0), c->result(0));
        b->create<equeue::ExternOp>(std::string("probe"),
                                    std::vector<ir::Value>{sq->result(0)},
                                    std::vector<ir::Type>{});
    });
    sim::Simulator s;
    std::vector<int64_t> probed;
    s.opFunctions().registerOp("probe", [&](const sim::OpCall &call) {
        probed.push_back(call.args[0].asInt());
        return sim::OpFnResult{};
    });
    s.simulate(module.get());
    s.simulate(module.get());
    ASSERT_EQ(probed.size(), 2u);
    EXPECT_EQ(probed[0], 49);
    EXPECT_EQ(probed[1], 49);
}

/** A probe of 7 * 7 inside a launch, in a fresh module of @p ctx. */
ir::OwningOpRef
buildSquareProbe(ir::Context &ctx)
{
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
        auto c = b.create<arith::ConstantOp>(int64_t{7}, ctx.i32Type());
        auto sq = b.create<arith::MulIOp>(c->result(0), c->result(0));
        b.create<equeue::ExternOp>(std::string("probe"),
                                   std::vector<ir::Value>{sq->result(0)},
                                   std::vector<ir::Type>{});
        b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b.create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});
    return module;
}

TEST(DispatchTableTest, ContextAtReusedAddressGetsFreshTables)
{
    // One Simulator keeps its dispatch tables across modules of one
    // context. A second context built at the first one's address, with
    // as many op names interned but in another order, must not inherit
    // them: every op kind's id differs.
    sim::Simulator s;
    std::vector<int64_t> probed;
    s.opFunctions().registerOp("probe", [&](const sim::OpCall &call) {
        probed.push_back(call.args[0].asInt());
        return sim::OpFnResult{};
    });
    std::optional<ir::Context> ctx;
    ctx.emplace();
    ir::registerAllDialects(*ctx);
    ctx->internOpName("test.padding");
    const uint32_t muli = arith::MulIOp::id(*ctx).raw();
    s.simulate(buildSquareProbe(*ctx).get());
    const size_t names = ctx->numInternedOpNames();
    const ir::Context *first = &*ctx;

    ctx.reset();
    ctx.emplace();
    ASSERT_EQ(&*ctx, first);
    ctx->internOpName("test.padding");
    ir::registerAllDialects(*ctx);
    EXPECT_NE(arith::MulIOp::id(*ctx).raw(), muli);
    ir::OwningOpRef module = buildSquareProbe(*ctx);
    EXPECT_EQ(ctx->numInternedOpNames(), names);
    s.simulate(module.get());
    ASSERT_EQ(probed.size(), 2u);
    EXPECT_EQ(probed[0], 49);
    EXPECT_EQ(probed[1], 49);
}

TEST(ComponentChildTest, AddChildRejectsDuplicateNames)
{
    sim::Component root("top");
    sim::Component a("a"), bchild("b");
    root.addChild("pe", &a);
    EXPECT_EQ(root.child("pe"), &a);
    EXPECT_EQ(a.parent(), &root);
    // Re-adding the same name used to silently overwrite, leaving the
    // old child's parent pointer dangling; it must now fail loudly.
    EXPECT_DEATH(root.addChild("pe", &bchild), "already has a child");
}

TEST(ComponentChildTest, DistinctNamesCoexist)
{
    sim::Component root("top");
    sim::Component a("a"), c("c");
    root.addChild("pe0", &a);
    root.addChild("pe1", &c);
    EXPECT_EQ(root.children().size(), 2u);
    EXPECT_EQ(root.child("pe0"), &a);
    EXPECT_EQ(root.child("pe1"), &c);
}

} // namespace
