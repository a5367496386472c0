/**
 * @file
 * The verify memo: Operation::verify() answers a repeat call on an
 * unchanged op at once, and every IR mutation API (and every registry
 * change) is an IR change that makes the next verify() check again.
 * Each mutation test verifies a module, makes it invalid through that
 * one API, and requires the next verify() to report the error.
 */

#include "testutil.hh"

#include <string>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/pass.hh"

namespace {

using namespace eq;

/** Times the probe op's semantic hook ran. */
int g_probeChecks = 0;

/** `test.probe`: one region of exactly one block, and, when in a block,
 *  at least one sibling there. */
std::string
verifyProbe(ir::Operation *op, const ir::OperandGroups &)
{
    ++g_probeChecks;
    if (op->region(0).numBlocks() != 1)
        return "needs exactly one block";
    if (op->block() && op->block()->size() < 2)
        return "needs a sibling";
    return "";
}

constexpr ir::OpSignature kProbeSignature{
    {ir::rest(ir::kAnyKind)}, {}, {}, /*regions=*/1};

std::string
rejectAll(ir::Operation *, const ir::OperandGroups &)
{
    return "rejected";
}

/**
 * A valid module:
 *   %e = equeue.control_start
 *   %c = arith.constant 1 : i32
 *   %s = arith.addi %c, %c
 *   test.probe {            // outer
 *     test.probe {}         // inner: its sibling is %k
 *     %k = arith.constant 2 : i32
 *   }
 */
class VerifyMemoTest : public test::RegisteredModuleTest {
  protected:
    void
    SetUp() override
    {
        RegisteredModuleTest::SetUp();
        ctx.registerOp({"test.probe", &kProbeSignature, verifyProbe});
        event = b->create<equeue::ControlStartOp>()->result(0);
        cst = b->create<arith::ConstantOp>(int64_t(1), ctx.i32Type()).op();
        add = b->create<arith::AddIOp>(cst->result(0), cst->result(0)).op();
        outer = b->create("test.probe", {}, {}, {}, 1);
        ir::OpBuilder inside(ctx);
        inside.setInsertionPointToEnd(&outer->region(0).ensureBlock());
        inner = inside.create("test.probe", {}, {}, {}, 1);
        inner->region(0).ensureBlock();
        sibling =
            inside.create<arith::ConstantOp>(int64_t(2), ctx.i32Type()).op();
        ASSERT_EQ(module->verify(), "");
        g_probeChecks = 0;
    }

    ir::Value event;
    ir::Operation *cst = nullptr;
    ir::Operation *add = nullptr;
    ir::Operation *outer = nullptr;
    ir::Operation *inner = nullptr;
    ir::Operation *sibling = nullptr;
};

TEST_F(VerifyMemoTest, RepeatOnUnchangedModuleChecksNothing)
{
    uint64_t gen = ctx.irGeneration();
    EXPECT_EQ(module->verify(), "");
    EXPECT_EQ(g_probeChecks, 0);
    EXPECT_EQ(ctx.irGeneration(), gen);
}

TEST_F(VerifyMemoTest, ReadingTheIrIsNoChange)
{
    uint64_t gen = ctx.irGeneration();
    std::string text = module->str();
    module->walk([](ir::Operation *op) { (void)op->attrs(); });
    EXPECT_EQ(ctx.irGeneration(), gen);
    EXPECT_EQ(module->verify(), "");
    EXPECT_EQ(g_probeChecks, 0);
}

TEST_F(VerifyMemoTest, ANestedOpIsCheckedWithItsParent)
{
    // The memo answers only for the op it remembers: verifying a
    // nested op checks that op, not the module.
    EXPECT_EQ(inner->verify(), "");
    EXPECT_EQ(g_probeChecks, 1);
}

TEST_F(VerifyMemoTest, SetOperand)
{
    add->setOperand(0, event);
    EXPECT_EQ(module->verify(),
              "op 'arith.addi': operand 0 may not be !equeue.event");
}

TEST_F(VerifyMemoTest, AppendOperand)
{
    add->appendOperand(cst->result(0));
    EXPECT_EQ(module->verify(),
              "op 'arith.addi': expects 2 operand(s), has 3");
}

TEST_F(VerifyMemoTest, EraseOperand)
{
    add->eraseOperand(1);
    EXPECT_EQ(module->verify(),
              "op 'arith.addi': expects 2 operand(s), has 1");
}

TEST_F(VerifyMemoTest, SetAttr)
{
    cst->setAttr("value", ir::Attribute::string("one"));
    EXPECT_EQ(module->verify().rfind(
                  "op 'arith.constant': attribute 'value' may not be ", 0),
              0u);
}

TEST_F(VerifyMemoTest, RemoveAttr)
{
    cst->removeAttr("value");
    EXPECT_EQ(module->verify(),
              "op 'arith.constant': attribute 'value' is required");
}

TEST_F(VerifyMemoTest, BlockPushBack)
{
    ir::Operation *bogus = b->createDetached("bogus.op", {}, {});
    ASSERT_EQ(module->verify(), "");
    body().push_back(bogus);
    EXPECT_EQ(module->verify(), "unregistered operation 'bogus.op'");
}

TEST_F(VerifyMemoTest, BlockInsert)
{
    ir::Operation *bogus = b->createDetached("bogus.op", {}, {});
    ASSERT_EQ(module->verify(), "");
    body().insert(body().begin(), bogus);
    EXPECT_EQ(module->verify(), "unregistered operation 'bogus.op'");
}

TEST_F(VerifyMemoTest, Remove)
{
    sibling->remove();
    ir::OwningOpRef detached(sibling);
    EXPECT_EQ(module->verify(), "op 'test.probe': needs a sibling");
}

TEST_F(VerifyMemoTest, Erase)
{
    sibling->erase();
    EXPECT_EQ(module->verify(), "op 'test.probe': needs a sibling");
}

TEST_F(VerifyMemoTest, MoveBefore)
{
    sibling->moveBefore(add);
    EXPECT_EQ(module->verify(), "op 'test.probe': needs a sibling");
}

TEST_F(VerifyMemoTest, MoveToEnd)
{
    sibling->moveToEnd(&body());
    EXPECT_EQ(module->verify(), "op 'test.probe': needs a sibling");
}

TEST_F(VerifyMemoTest, AddBlockArgument)
{
    affine::ForOp loop = b->create<affine::ForOp>(0, 4);
    ASSERT_EQ(module->verify(), "");
    loop.body().addArgument(ctx.indexType());
    EXPECT_EQ(module->verify(),
              "op 'affine.for': body must have exactly one induction "
              "variable");
}

TEST_F(VerifyMemoTest, AddRegionBlock)
{
    inner->region(0).addBlock();
    EXPECT_EQ(module->verify(), "op 'test.probe': needs exactly one block");
}

TEST_F(VerifyMemoTest, SetResultType)
{
    add->result(0).setType(ctx.eventType());
    EXPECT_EQ(module->verify(),
              "op 'arith.addi': result 0 may not be !equeue.event");
}

TEST_F(VerifyMemoTest, SetBlockArgumentType)
{
    // Retyping the induction variable makes the body's use of it
    // invalid.
    affine::ForOp loop = b->create<affine::ForOp>(0, 4);
    ir::OpBuilder in_loop(ctx);
    in_loop.setInsertionPoint(&loop.body(), loop.body().begin());
    in_loop.create<arith::AddIOp>(loop.inductionVar(), loop.inductionVar());
    ASSERT_EQ(module->verify(), "");
    loop.inductionVar().setType(ctx.eventType());
    EXPECT_EQ(module->verify(),
              "op 'arith.addi': operand 0 may not be !equeue.event");
}

TEST_F(VerifyMemoTest, ReplaceAllUsesWith)
{
    cst->result(0).replaceAllUsesWith(event);
    EXPECT_EQ(module->verify(),
              "op 'arith.addi': operand 0 may not be !equeue.event");
}

TEST_F(VerifyMemoTest, RegisterOp)
{
    ctx.registerOp({arith::AddIOp::opName, &arith::AddIOp::opSignature,
                    rejectAll});
    EXPECT_EQ(module->verify(), "op 'arith.addi': rejected");
}

TEST_F(VerifyMemoTest, SetAllowUnregistered)
{
    ctx.setAllowUnregistered(true);
    body().push_back(b->createDetached("bogus.op", {}, {}));
    ASSERT_EQ(module->verify(), "");
    ctx.setAllowUnregistered(false);
    EXPECT_EQ(module->verify(), "unregistered operation 'bogus.op'");
}

TEST_F(VerifyMemoTest, NewOpAtADestroyedOpsAddress)
{
    ir::AttrDict attrs;
    attrs.set("value", ir::Attribute::integer(1));
    ir::OwningOpRef first(b->createDetached("arith.constant",
                                            {ctx.i32Type()}, {}, attrs));
    ASSERT_EQ(first->verify(), "");
    const void *freed = first.get();
    first.reset();
    // The same size as the op just freed, so a plain allocator hands
    // the new op that op's storage (a sanitizer's may not).
    ir::OwningOpRef second(
        b->createDetached("arith.constant", {ctx.i32Type()}, {}, {}));
    SCOPED_TRACE(second.get() == freed ? "same address" : "new address");
    EXPECT_EQ(second->verify(),
              "op 'arith.constant': attribute 'value' is required");
}

TEST_F(VerifyMemoTest, EachContextKeepsItsOwnMemo)
{
    ir::Context other;
    ir::registerAllDialects(other);
    ir::OwningOpRef other_module = ir::createModule(other);
    ir::OpBuilder ob(other);
    ob.setInsertionPointToEnd(&other_module->region(0).front());
    ir::Operation *c =
        ob.create<arith::ConstantOp>(int64_t(1), other.i32Type()).op();
    ASSERT_EQ(other_module->verify(), "");

    // A change in one context leaves the other's memo standing.
    uint64_t gen = ctx.irGeneration();
    c->removeAttr("value");
    EXPECT_EQ(ctx.irGeneration(), gen);
    EXPECT_EQ(module->verify(), "");
    EXPECT_EQ(g_probeChecks, 0);
    EXPECT_EQ(other_module->verify(),
              "op 'arith.constant': attribute 'value' is required");

    // And the other way round.
    c->setAttr("value", ir::Attribute::integer(1));
    ASSERT_EQ(other_module->verify(), "");
    uint64_t other_gen = other.irGeneration();
    add->eraseOperand(1);
    EXPECT_EQ(other.irGeneration(), other_gen);
    EXPECT_EQ(other_module->verify(), "");
    EXPECT_EQ(module->verify(),
              "op 'arith.addi': expects 2 operand(s), has 1");
}

TEST_F(VerifyMemoTest, PassManagerPostVerifyDiagnosticUnchanged)
{
    ir::PassManager pm;
    pm.add<ir::LambdaPass>("keep", [](ir::Operation *) {
        return std::string();
    });
    pm.add<ir::LambdaPass>("drop-sibling", [&](ir::Operation *) {
        sibling->erase();
        return std::string();
    });
    EXPECT_EQ(pm.run(module.get()),
              "drop-sibling: post-verify failed: op 'test.probe': needs a "
              "sibling");
}

TEST_F(VerifyMemoTest, VerifyAfterAPassManagerRunChecksNothing)
{
    ir::PassManager pm;
    pm.add<ir::LambdaPass>("set-value", [&](ir::Operation *) {
        cst->setAttr("value", ir::Attribute::integer(7));
        return std::string();
    });
    ASSERT_EQ(pm.run(module.get()), "");
    int after_pm = g_probeChecks;
    EXPECT_EQ(after_pm, 2);
    EXPECT_EQ(module->verify(), "");
    EXPECT_EQ(g_probeChecks, after_pm);
}

} // namespace
