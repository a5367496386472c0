/**
 * @file
 * Operation::clone tests: deep copies with operand remapping, region and
 * block-argument duplication, attribute preservation.
 */

#include "testutil.hh"

#include "dialects/affine.hh"
#include "dialects/arith.hh"

namespace {

using namespace eq;

class CloneTest : public test::RegisteredModuleTest {};

TEST_F(CloneTest, RemapsOperandsThroughMapping)
{
    auto c1 = b->create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
    auto c2 = b->create<arith::ConstantOp>(int64_t{2}, ctx.i32Type());
    auto add = b->create<arith::AddIOp>(c1->result(0), c1->result(0));

    std::map<ir::ValueImpl *, ir::Value> mapping;
    mapping[c1->result(0).impl()] = c2->result(0);
    ir::Operation *copy = add->clone(mapping);
    b->insert(copy);
    EXPECT_EQ(copy->operand(0), c2->result(0));
    EXPECT_EQ(copy->operand(1), c2->result(0));
    // Original untouched.
    EXPECT_EQ(add->operand(0), c1->result(0));
    // Result registered in the mapping.
    EXPECT_EQ(mapping.at(add->result(0).impl()), copy->result(0));
}

TEST_F(CloneTest, DeepCopiesRegionsAndBlockArgs)
{
    auto loop =
        b->create<affine::ForOp>(int64_t{0}, int64_t{4}, int64_t{1});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        affine::ForOp f(loop.op());
        b->setInsertionPointToEnd(&f.body());
        auto two = b->create<arith::ConstantOp>(int64_t{2}, ctx.indexType());
        b->create<arith::MulIOp>(f.inductionVar(), two->result(0));
        b->create<affine::YieldOp>(std::vector<ir::Value>{});
    }

    std::map<ir::ValueImpl *, ir::Value> mapping;
    ir::Operation *copy = loop->clone(mapping);
    b->insert(copy);
    affine::ForOp cf(copy);
    ASSERT_EQ(cf.body().size(), 3u);
    ASSERT_EQ(cf.body().numArguments(), 1u);
    // The cloned muli uses the cloned induction var, not the original.
    ir::Operation *cloned_mul = *std::next(cf.body().begin());
    EXPECT_EQ(cloned_mul->name(), "arith.muli");
    EXPECT_EQ(cloned_mul->operand(0), cf.inductionVar());
    EXPECT_NE(cloned_mul->operand(0),
              affine::ForOp(loop.op()).inductionVar());
    // Attributes preserved.
    EXPECT_EQ(cf.ub(), 4);
    EXPECT_EQ(module->verify(), "");
}

TEST_F(CloneTest, ClonePrintsIdenticallyToOriginal)
{
    auto loop =
        b->create<affine::ForOp>(int64_t{0}, int64_t{8}, int64_t{2});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        affine::ForOp f(loop.op());
        b->setInsertionPointToEnd(&f.body());
        b->create<arith::AddIOp>(f.inductionVar(), f.inductionVar());
        b->create<affine::YieldOp>(std::vector<ir::Value>{});
    }
    std::map<ir::ValueImpl *, ir::Value> mapping;
    ir::Operation *copy = loop->clone(mapping);
    std::string orig = loop->str();
    std::string dup = copy->str();
    EXPECT_EQ(orig, dup);
    copy->erase(); // detached clone owned by us
}

} // namespace
