/**
 * @file
 * Round-trip tests: parse(print(module)) must be structurally identical.
 * The structural comparison and round-trip helpers live in testutil.hh;
 * exhaustive per-registered-op coverage is in test_roundtrip_registry.cc.
 */

#include "testutil.hh"

#include <iterator>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/parser.hh"

namespace {

using namespace eq;
using test::roundTrip;

class PrinterParserTest : public test::RegisteredModuleTest {};

TEST_F(PrinterParserTest, EmptyModule)
{
    roundTrip(ctx, module.get());
}

TEST_F(PrinterParserTest, ArithChain)
{
    auto c1 = b->create<arith::ConstantOp>(int64_t{3}, ctx.i32Type());
    auto c2 = b->create<arith::ConstantOp>(int64_t{4}, ctx.i32Type());
    auto add = b->create<arith::AddIOp>(c1->result(0), c2->result(0));
    b->create<arith::MulIOp>(add->result(0), c1->result(0));
    roundTrip(ctx, module.get());
}

TEST_F(PrinterParserTest, NestedRegionsWithBlockArgs)
{
    auto loop = b->create<affine::ForOp>(int64_t{0}, int64_t{8}, int64_t{1});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&affine::ForOp(loop.op()).body());
        auto c = b->create<arith::ConstantOp>(int64_t{1}, ctx.indexType());
        b->create<arith::AddIOp>(affine::ForOp(loop.op()).inductionVar(),
                                 c->result(0));
        b->create<affine::YieldOp>(std::vector<ir::Value>{});
    }
    roundTrip(ctx, module.get());
}

TEST_F(PrinterParserTest, EQueueStructureAndLaunch)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{4096}, 32u, 4u);
    auto buf = b->create<equeue::AllocOp>(mem->result(0),
                                          std::vector<int64_t>{64}, 32u);
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{buf->result(0)}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(launch.op());
        b->setInsertionPointToEnd(&l.body());
        auto data =
            b->create<equeue::ReadOp>(l.body().argument(0), ir::Value(),
                                      std::vector<ir::Value>{});
        b->create<equeue::WriteOp>(data->result(0), l.body().argument(0),
                                   ir::Value(), std::vector<ir::Value>{});
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});
    ASSERT_EQ(module->verify(), "");
    roundTrip(ctx, module.get());
}

class UnregisteredPrinterParserTest : public test::UnregisteredModuleTest {
};

TEST_F(UnregisteredPrinterParserTest, MultiResultUsesHashSyntax)
{
    auto *multi =
        b->create("test.multi", {ctx.i32Type(), ctx.i64Type()}, {});
    b->create("test.use", {}, {multi->result(1), multi->result(0)});
    std::string text = module->str();
    EXPECT_NE(text.find(":2 = "), std::string::npos);
    EXPECT_NE(text.find("#1"), std::string::npos);
    roundTrip(ctx, module.get());
}

TEST_F(PrinterParserTest, ParserRejectsGarbage)
{
    EXPECT_FALSE(static_cast<bool>(ir::parseSourceString(ctx, "not ir")));
    EXPECT_FALSE(static_cast<bool>(
        ir::parseSourceString(ctx, "\"builtin.module\"( : () -> ()")));
    // Use of an undefined value.
    EXPECT_FALSE(static_cast<bool>(ir::parseSourceString(
        ctx, "\"test.use\"(%99) : (i32) -> ()")));
    // An error inside a region frees the ops parsed before it, uses
    // and all.
    EXPECT_FALSE(static_cast<bool>(ir::parseSourceString(
        ctx, "\"builtin.module\"() ({\n"
             "  %0 = \"test.def\"() : () -> (i32)\n"
             "  \"test.use\"(%0, %0) : (i32, i32) -> ()\n"
             "  \"test.use\"(%99) : (i32) -> ()\n"
             "}) : () -> ()")));
}

TEST_F(PrinterParserTest, FloatConstantsReadBackExactly)
{
    // 1/3 needs all 17 digits; 1234567.0 and 1e300 are whole numbers
    // whose shortest form has no '.' or needs a positive exponent.
    const double values[] = {1.0 / 3.0, 1234567.0, 1e300, -2.5e-9, 2.0};
    for (double v : values)
        b->create<arith::ConstantOp>(v, ctx.floatType(64));
    std::string text = module->str();
    EXPECT_NE(text.find("value = 1234567.0}"), std::string::npos) << text;
    ir::ParseResult parsed = ir::parseSourceString(ctx, text);
    ASSERT_TRUE(static_cast<bool>(parsed)) << parsed.error << "\n" << text;
    size_t i = 0;
    for (ir::Operation *op : parsed.op->region(0).front()) {
        ASSERT_LT(i, std::size(values));
        EXPECT_EQ(op->attr("value").asFloat(), values[i]) << text;
        ++i;
    }
    EXPECT_EQ(i, std::size(values));
    roundTrip(ctx, module.get());
}

TEST_F(PrinterParserTest, CommentsAreSkipped)
{
    std::string src = "// a comment\n\"builtin.module\"() ({\n"
                      "// inner comment\n}) : () -> ()\n";
    auto parsed = ir::parseSourceString(ctx, src);
    ASSERT_TRUE(static_cast<bool>(parsed)) << parsed.error;
    EXPECT_EQ(parsed.op->name(), "builtin.module");
}

} // namespace
