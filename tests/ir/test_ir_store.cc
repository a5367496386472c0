/**
 * @file
 * The Context's IR store (ir/store.hh): a freed op's slot serves the
 * next op of its size, ops move and clone between trees of one Context,
 * the death of the last tree rewinds the store so the next build lands
 * on the same addresses, a rewound store keeps at most a fixed number
 * of bytes whatever the largest tree it held, releaseUnused and
 * Session::releasePools free the rest, and (under AddressSanitizer) a
 * use of an erased op is reported.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dialects/arith.hh"
#include "ir/builder.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace {

using namespace eq;

constexpr size_t kRetainCap =
    ir::IrStore::kRetainedChunks * ir::IrStore::kChunkBytes;

scalesim::Config
arrayConfig(int side)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = side;
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 4;
    cfg.fh = cfg.fw = 2;
    return cfg;
}

std::vector<const ir::Operation *>
opsOf(ir::Operation *module)
{
    std::vector<const ir::Operation *> ops;
    module->walk([&](ir::Operation *op) { ops.push_back(op); });
    return ops;
}

class IrStoreTest : public ::testing::Test {
  protected:
    IrStoreTest() { ir::registerAllDialects(ctx); }

    /** An arith.constant in @p block (or detached when null). */
    ir::Operation *
    constant(int64_t v, ir::Block *block = nullptr)
    {
        ir::OpBuilder b(ctx);
        if (!block)
            return arith::ConstantOp::build(b, v, ctx.i32Type());
        b.setInsertionPointToEnd(block);
        return b.create<arith::ConstantOp>(v, ctx.i32Type()).op();
    }

    ir::Context ctx;
};

TEST_F(IrStoreTest, AnErasedOpsSlotServesTheNextOpOfItsSize)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::Block *body = &module->region(0).ensureBlock();
    constant(1, body);
    ir::Operation *doomed = constant(2, body);
    const void *slot = doomed;
    doomed->erase();
    ir::Operation *next = constant(3, body);
    EXPECT_EQ(static_cast<const void *>(next), slot);
    EXPECT_EQ(module->verify(), "");
    EXPECT_EQ(body->size(), 2u);
    EXPECT_EQ(next->intAttr("value"), 3);
}

TEST_F(IrStoreTest, OpsCloneAndMoveBetweenTwoModules)
{
    ir::OwningOpRef a = systolic::buildSystolicModule(ctx, arrayConfig(2));
    ir::OwningOpRef b = ir::createModule(ctx);
    ir::Block *a_body = &a->region(0).front();
    ir::Block *b_body = &b->region(0).ensureBlock();
    const std::string a_text = a->str();

    // A deep copy of all of a, then a's own ops moved over one by one:
    // b ends up holding a twice and a holds nothing.
    std::map<ir::ValueImpl *, ir::Value> mapping;
    for (ir::Operation *op : *a_body)
        b_body->push_back(op->clone(mapping));
    size_t moved = 0;
    while (ir::Operation *op = a_body->front()) {
        op->moveToEnd(b_body);
        ++moved;
    }
    EXPECT_TRUE(a_body->empty());
    EXPECT_EQ(b_body->size(), 2 * moved);
    a.reset();
    EXPECT_EQ(b->verify(), "");

    // Dropping the clones leaves exactly the moved ops, which print as
    // a did.
    std::vector<ir::Operation *> clones;
    for (ir::Operation *op : *b_body)
        if (clones.size() < moved)
            clones.push_back(op);
    for (auto it = clones.rbegin(); it != clones.rend(); ++it)
        (*it)->erase();
    EXPECT_EQ(b->str(), a_text);
}

TEST_F(IrStoreTest, TheNextBuildAfterTheLastTreeDiedReusesItsAddresses)
{
    ir::OwningOpRef first = systolic::buildSystolicModule(ctx, arrayConfig(4));
    const auto before = opsOf(first.get());
    first.reset();
    ir::OwningOpRef second =
        systolic::buildSystolicModule(ctx, arrayConfig(4));
    EXPECT_EQ(opsOf(second.get()), before);
}

TEST_F(IrStoreTest, NoRewindWhileAnotherTreeLives)
{
    ir::OwningOpRef keeper = ir::createModule(ctx);
    ir::OwningOpRef first = systolic::buildSystolicModule(ctx, arrayConfig(2));
    const ir::Operation *old = first.get();
    first.reset();
    // The keeper still lives, so the store only recycles through its
    // free lists: the module op's slot is the first of its size.
    ir::OwningOpRef second =
        systolic::buildSystolicModule(ctx, arrayConfig(2));
    EXPECT_EQ(second.get(), old);
    EXPECT_EQ(second->verify(), "");
    EXPECT_EQ(keeper->verify(), "");
}

TEST_F(IrStoreTest, ALargeTreeLeavesAtMostTheCapBehind)
{
    ir::IrStore &store = ctx.irStore();
    ir::OwningOpRef big = systolic::buildSystolicModule(ctx, arrayConfig(32));
    EXPECT_EQ(store.unusedBytes(), 0u);
    big.reset();
    EXPECT_GT(kRetainCap, 0u);
    EXPECT_LE(store.unusedBytes(), kRetainCap);
    store.releaseUnused();
    EXPECT_EQ(store.unusedBytes(), 0u);
    // The store still serves a build after giving everything back.
    ir::OwningOpRef again = systolic::buildSystolicModule(ctx, arrayConfig(2));
    EXPECT_EQ(again->verify(), "");
}

TEST(IrStoreSession, RebuildAndReleasePoolsKeepNoUnusedChunks)
{
    sim::Session session;
    ir::IrStore &store = session.context().irStore();
    session.rebuild([](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, arrayConfig(32));
    });
    session.rebuild([](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, arrayConfig(2));
    });
    // The small module needs fewer chunks than the big one left.
    EXPECT_EQ(store.unusedBytes(), 0u);
    session.run();
    session.releasePools();
    EXPECT_EQ(store.unusedBytes(), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST_F(IrStoreTest, UseOfAnErasedOpIsReported)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::Block *body = &module->region(0).ensureBlock();
    ir::Operation *op = constant(7, body);
    op->erase();
    EXPECT_DEATH(
        {
            volatile size_t n = op->numResults();
            (void)n;
        },
        "use-after-poison");
}
#else
TEST_F(IrStoreTest, UseOfAnErasedOpIsReported)
{
    GTEST_SKIP() << "needs an AddressSanitizer build";
}
#endif

} // namespace
