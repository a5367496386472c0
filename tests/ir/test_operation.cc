/**
 * @file
 * Unit tests for operations, blocks, regions, use lists, and RAUW.
 */

#include "testutil.hh"

#include <string>
#include <utility>
#include <vector>

#include "ir/context.hh"
#include "ir/operation.hh"

namespace {

using namespace eq;

class OperationTest : public test::UnregisteredModuleTest {};

using UseList = std::vector<std::pair<ir::Operation *, unsigned>>;

/** The (user, operand index) pairs of @p v, in use-list order. */
UseList
usesOf(ir::Value v)
{
    UseList out;
    for (auto [user, idx] : v.uses())
        out.emplace_back(user, idx);
    return out;
}

/** The ops of @p blk, in block order. */
std::vector<ir::Operation *>
opsOf(ir::Block &blk)
{
    std::vector<ir::Operation *> out;
    for (ir::Operation *op : blk)
        out.push_back(op);
    return out;
}

TEST_F(OperationTest, CreateWithResultsAndOperands)
{
    auto *def = b->create("test.def", {ctx.i32Type()}, {});
    auto *use = b->create("test.use", {ctx.i64Type()},
                          {def->result(0), def->result(0)});
    EXPECT_EQ(use->numOperands(), 2u);
    EXPECT_EQ(use->operand(0), def->result(0));
    EXPECT_EQ(def->result(0).numUses(), 2u);
    EXPECT_EQ(use->result(0).type(), ctx.i64Type());
    EXPECT_EQ(def->result(0).definingOp(), def);
}

TEST_F(OperationTest, NameComponents)
{
    auto *op = b->create("equeue.launch", {}, {});
    EXPECT_EQ(op->dialect(), "equeue");
    EXPECT_EQ(op->shortName(), "launch");
}

TEST_F(OperationTest, ReplaceAllUsesWith)
{
    auto *a = b->create("test.def", {ctx.i32Type()}, {});
    auto *c = b->create("test.def", {ctx.i32Type()}, {});
    auto *u1 = b->create("test.use", {}, {a->result(0)});
    auto *u2 = b->create("test.use", {}, {a->result(0), c->result(0)});
    a->result(0).replaceAllUsesWith(c->result(0));
    EXPECT_EQ(a->result(0).numUses(), 0u);
    EXPECT_EQ(c->result(0).numUses(), 3u);
    EXPECT_EQ(u1->operand(0), c->result(0));
    EXPECT_EQ(u2->operand(0), c->result(0));
}

TEST_F(OperationTest, EraseRemovesUses)
{
    auto *a = b->create("test.def", {ctx.i32Type()}, {});
    auto *u = b->create("test.use", {}, {a->result(0)});
    EXPECT_EQ(a->result(0).numUses(), 1u);
    u->erase();
    EXPECT_EQ(a->result(0).numUses(), 0u);
}

TEST_F(OperationTest, EraseOperandShiftsAndReindexes)
{
    auto *a = b->create("test.def", {ctx.i32Type()}, {});
    auto *c = b->create("test.def", {ctx.i32Type()}, {});
    auto *u = b->create("test.use", {},
                        {a->result(0), c->result(0), a->result(0)});
    u->eraseOperand(0);
    EXPECT_EQ(u->numOperands(), 2u);
    EXPECT_EQ(u->operand(0), c->result(0));
    EXPECT_EQ(u->operand(1), a->result(0));
    EXPECT_EQ(a->result(0).numUses(), 1u);
    // The remaining use must carry the updated operand index.
    a->result(0).replaceAllUsesWith(c->result(0));
    EXPECT_EQ(u->operand(1), c->result(0));
}

TEST_F(OperationTest, MoveBefore)
{
    auto *a = b->create("test.a", {}, {});
    auto *c = b->create("test.b", {}, {});
    ir::Block &blk = body();
    EXPECT_EQ(blk.front(), a);
    a->moveBefore(a); // no-op shuffle within the same block
    c->moveBefore(a);
    EXPECT_EQ(blk.front(), c);
    EXPECT_EQ(blk.back(), a);
}

TEST_F(OperationTest, BlockArguments)
{
    auto *op = b->create("test.region", {}, {}, {}, 1);
    ir::Block *inner = op->region(0).addBlock();
    ir::Value arg = inner->addArgument(ctx.indexType());
    EXPECT_TRUE(arg.isBlockArg());
    EXPECT_EQ(arg.ownerBlock(), inner);
    EXPECT_EQ(arg.type(), ctx.indexType());
    EXPECT_EQ(inner->numArguments(), 1u);
}

TEST_F(OperationTest, WalkVisitsNestedOps)
{
    auto *outer = b->create("test.region", {}, {}, {}, 1);
    ir::Block *inner = outer->region(0).addBlock();
    ir::OpBuilder ib(ctx);
    ib.setInsertionPointToEnd(inner);
    ib.create("test.inner1", {}, {});
    ib.create("test.inner2", {}, {});
    int count = 0;
    module->walk([&](ir::Operation *) { ++count; });
    // module + outer + 2 inner = 4
    EXPECT_EQ(count, 4);
}

TEST_F(OperationTest, VerifyRejectsUnregisteredWhenStrict)
{
    ctx.setAllowUnregistered(false);
    auto *op = b->create("test.unknown", {}, {});
    EXPECT_NE(op->verify(), "");
    ctx.setAllowUnregistered(true);
    EXPECT_EQ(op->verify(), "");
}

TEST_F(OperationTest, IntAttrHelpers)
{
    auto *op = b->create("test.attrs", {}, {});
    op->setAttr("x", ir::Attribute::integer(5));
    EXPECT_EQ(op->intAttr("x"), 5);
    EXPECT_EQ(op->intAttrOr("missing", 9), 9);
    op->removeAttr("x");
    EXPECT_EQ(op->intAttrOr("x", 1), 1);
}

TEST_F(OperationTest, UseListKeepsAttachOrder)
{
    auto *a = b->create("test.def", {ctx.i32Type()}, {});
    auto *u1 = b->create("test.use", {}, {a->result(0)});
    auto *u2 = b->create("test.use", {}, {a->result(0), a->result(0)});
    u1->appendOperand(a->result(0));
    EXPECT_EQ(usesOf(a->result(0)),
              (UseList{{u1, 0}, {u2, 0}, {u2, 1}, {u1, 1}}));
}

TEST_F(OperationTest, SetOperandMovesUseToTail)
{
    auto *a = b->create("test.def", {ctx.i32Type()}, {});
    auto *c = b->create("test.def", {ctx.i32Type()}, {});
    auto *u1 = b->create("test.use", {}, {a->result(0)});
    auto *u2 = b->create("test.use", {}, {a->result(0)});
    auto *u3 = b->create("test.use", {}, {a->result(0)});
    u1->setOperand(0, c->result(0));
    EXPECT_EQ(usesOf(a->result(0)), (UseList{{u2, 0}, {u3, 0}}));
    EXPECT_EQ(usesOf(c->result(0)), (UseList{{u1, 0}}));
    u1->setOperand(0, a->result(0));
    EXPECT_EQ(usesOf(a->result(0)), (UseList{{u2, 0}, {u3, 0}, {u1, 0}}));
    EXPECT_FALSE(c->result(0).hasUses());
    // Re-setting the same value also re-attaches the use at the tail.
    u2->setOperand(0, a->result(0));
    EXPECT_EQ(usesOf(a->result(0)), (UseList{{u3, 0}, {u1, 0}, {u2, 0}}));
}

TEST_F(OperationTest, EraseOperandReindexesUsesInPlace)
{
    auto *a = b->create("test.def", {ctx.i32Type()}, {});
    auto *c = b->create("test.def", {ctx.i32Type()}, {});
    auto *u = b->create("test.use", {},
                        {a->result(0), c->result(0), a->result(0),
                         c->result(0)});
    auto *u2 = b->create("test.use", {}, {a->result(0)});
    u->eraseOperand(1);
    EXPECT_EQ(u->numOperands(), 3u);
    EXPECT_EQ(usesOf(a->result(0)), (UseList{{u, 0}, {u, 1}, {u2, 0}}));
    EXPECT_EQ(usesOf(c->result(0)), (UseList{{u, 2}}));
    u->eraseOperand(0);
    EXPECT_EQ(usesOf(a->result(0)), (UseList{{u, 0}, {u2, 0}}));
    EXPECT_EQ(usesOf(c->result(0)), (UseList{{u, 1}}));
    EXPECT_EQ(u->operand(0), a->result(0));
    EXPECT_EQ(u->operand(1), c->result(0));
}

TEST_F(OperationTest, RauwKeepsUseOrder)
{
    auto *a = b->create("test.def", {ctx.i32Type()}, {});
    auto *c = b->create("test.def", {ctx.i32Type()}, {});
    auto *u1 = b->create("test.use", {}, {c->result(0)});
    auto *u2 = b->create("test.use", {}, {a->result(0)});
    auto *u3 = b->create("test.use", {}, {a->result(0), a->result(0)});
    a->result(0).replaceAllUsesWith(c->result(0));
    EXPECT_EQ(usesOf(c->result(0)),
              (UseList{{u1, 0}, {u2, 0}, {u3, 0}, {u3, 1}}));
}

TEST_F(OperationTest, BlockPositionThroughEdits)
{
    ir::Block &blk = body();
    auto *o1 = b->create("test.a", {}, {});
    auto *o2 = b->create("test.b", {}, {});
    auto *o3 = b->create("test.c", {}, {});
    using Ops = std::vector<ir::Operation *>;
    EXPECT_EQ(opsOf(blk), (Ops{o1, o2, o3}));

    // insert: before an iterator, and at end().
    auto *o4 = b->createDetached("test.d", {}, {});
    auto it = blk.insert(blk.find(o2), o4);
    EXPECT_EQ(*it, o4);
    EXPECT_EQ(o4->block(), &blk);
    auto *o5 = b->createDetached("test.e", {}, {});
    blk.insert(blk.end(), o5);
    EXPECT_EQ(opsOf(blk), (Ops{o1, o4, o2, o3, o5}));
    EXPECT_EQ(blk.size(), 5u);

    // moveBefore: later to earlier, earlier to later, onto itself.
    o5->moveBefore(o1);
    EXPECT_EQ(opsOf(blk), (Ops{o5, o1, o4, o2, o3}));
    o1->moveBefore(o3);
    EXPECT_EQ(opsOf(blk), (Ops{o5, o4, o2, o1, o3}));
    o2->moveBefore(o2);
    EXPECT_EQ(opsOf(blk), (Ops{o5, o4, o2, o1, o3}));

    // moveToEnd: within the block, and into another block.
    o5->moveToEnd(&blk);
    EXPECT_EQ(opsOf(blk), (Ops{o4, o2, o1, o3, o5}));
    auto *holder = b->create("test.region", {}, {}, {}, 1);
    ir::Block *inner = holder->region(0).addBlock();
    o2->moveToEnd(inner);
    o4->moveToEnd(inner);
    EXPECT_EQ(opsOf(*inner), (Ops{o2, o4}));
    EXPECT_EQ(o2->block(), inner);
    EXPECT_EQ(o2->parentOp(), holder);
    EXPECT_EQ(opsOf(blk), (Ops{o1, o3, o5, holder}));

    // remove: detached but alive; re-insertable.
    o3->remove();
    EXPECT_EQ(o3->block(), nullptr);
    EXPECT_EQ(opsOf(blk), (Ops{o1, o5, holder}));
    EXPECT_EQ(blk.find(o3), blk.end());
    blk.push_back(o3);
    EXPECT_EQ(opsOf(blk), (Ops{o1, o5, holder, o3}));

    // erase: front, middle, back.
    o1->erase();
    EXPECT_EQ(opsOf(blk), (Ops{o5, holder, o3}));
    o4->erase();
    EXPECT_EQ(opsOf(*inner), (Ops{o2}));
    o3->erase();
    EXPECT_EQ(opsOf(blk), (Ops{o5, holder}));
    EXPECT_EQ(blk.front(), o5);
    EXPECT_EQ(blk.back(), holder);
    EXPECT_EQ(blk.terminator(), holder);
    EXPECT_EQ(blk.size(), 2u);
}

TEST_F(OperationTest, WalkToleratesErasingOrMovingTheCurrentOp)
{
    auto *holder = b->create("test.region", {}, {}, {}, 1);
    ir::Block *inner = holder->region(0).addBlock();
    b->create("test.drop", {}, {});
    auto *keep = b->create("test.keep", {}, {});
    b->create("test.move", {}, {});
    b->create("test.drop", {}, {});
    std::vector<std::string> seen;
    module->walk([&](ir::Operation *op) {
        seen.push_back(op->name());
        if (op->name() == "test.drop")
            op->erase();
        else if (op->name() == "test.move")
            op->moveToEnd(inner);
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"builtin.module",
                                              "test.region", "test.drop",
                                              "test.keep", "test.move",
                                              "test.drop"}));
    EXPECT_EQ(opsOf(body()), (std::vector<ir::Operation *>{holder, keep}));
    EXPECT_EQ(inner->size(), 1u);
}

} // namespace
