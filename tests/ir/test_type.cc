/**
 * @file
 * Unit tests for type interning and accessors.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ir/context.hh"

namespace {

using namespace eq;

TEST(TypeTest, InterningGivesPointerEquality)
{
    ir::Context ctx;
    EXPECT_EQ(ctx.i32Type(), ctx.i32Type());
    EXPECT_EQ(ctx.intType(7), ctx.intType(7));
    EXPECT_NE(ctx.intType(7), ctx.intType(8));
    EXPECT_EQ(ctx.eventType(), ctx.eventType());
    EXPECT_NE(ctx.eventType(), ctx.procType());
}

TEST(TypeTest, ShapedTypesDistinguishShapeAndBits)
{
    ir::Context ctx;
    auto a = ctx.bufferType({64}, 32);
    auto b = ctx.bufferType({64}, 32);
    auto c = ctx.bufferType({64}, 16);
    auto d = ctx.bufferType({32}, 32);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_NE(a, ctx.tensorType({64}, 32));
}

TEST(TypeTest, ManyDistinctShapesInternOncePerShape)
{
    // Each of thousands of shapes must stay one type, distinct from
    // every other, with its fields.
    ir::Context ctx;
    std::vector<ir::Type> types;
    std::set<const ir::TypeStorage *> distinct;
    for (int64_t h = 1; h <= 40; ++h) {
        for (int64_t w = 1; w <= 40; ++w) {
            types.push_back(ctx.bufferType({h, w}, 32));
            types.push_back(ctx.tensorType({h, w}, 32));
            types.push_back(ctx.tensorType({h, w, 2}, 8));
            types.push_back(ctx.memrefType({h * w}, 16));
        }
    }
    for (ir::Type t : types)
        distinct.insert(t.impl());
    // {h * w} repeats across (h, w) pairs with equal products.
    std::set<int64_t> products;
    for (int64_t h = 1; h <= 40; ++h)
        for (int64_t w = 1; w <= 40; ++w)
            products.insert(h * w);
    EXPECT_EQ(distinct.size(), 3 * 40 * 40 + products.size());
    size_t i = 0;
    for (int64_t h = 1; h <= 40; ++h) {
        for (int64_t w = 1; w <= 40; ++w) {
            EXPECT_EQ(ctx.bufferType({h, w}, 32), types[i++]);
            EXPECT_EQ(ctx.tensorType({h, w}, 32), types[i++]);
            EXPECT_EQ(ctx.tensorType({h, w, 2}, 8), types[i++]);
            ir::Type m = types[i++];
            EXPECT_EQ(ctx.memrefType({h * w}, 16), m);
            EXPECT_TRUE(m.isMemRef());
            EXPECT_EQ(m.shape(), std::vector<int64_t>{h * w});
            EXPECT_EQ(m.elemBits(), 16u);
        }
    }
    EXPECT_EQ(ctx.intType(32), ctx.i32Type());
    EXPECT_NE(ctx.tensorType({}, 32), ctx.tensorType({1}, 32));
}

TEST(TypeTest, NumElementsAndBytes)
{
    ir::Context ctx;
    auto t = ctx.tensorType({4, 4, 3}, 32);
    EXPECT_EQ(t.numElements(), 48);
    EXPECT_EQ(t.sizeBytes(), 192);
    auto scalar = ctx.tensorType({}, 16);
    EXPECT_EQ(scalar.numElements(), 1);
    EXPECT_EQ(scalar.sizeBytes(), 2);
}

TEST(TypeTest, KindPredicates)
{
    ir::Context ctx;
    EXPECT_TRUE(ctx.i32Type().isInteger());
    EXPECT_TRUE(ctx.indexType().isIndex());
    EXPECT_TRUE(ctx.eventType().isEvent());
    EXPECT_TRUE(ctx.bufferType({4}, 32).isBuffer());
    EXPECT_TRUE(ctx.bufferType({4}, 32).isShaped());
    EXPECT_TRUE(ctx.procType().isComponent());
    EXPECT_TRUE(ctx.memType().isComponent());
    EXPECT_TRUE(ctx.compType().isComponent());
    EXPECT_FALSE(ctx.eventType().isComponent());
}

TEST(TypeTest, Printing)
{
    ir::Context ctx;
    EXPECT_EQ(ctx.i32Type().str(), "i32");
    EXPECT_EQ(ctx.floatType(64).str(), "f64");
    EXPECT_EQ(ctx.indexType().str(), "index");
    EXPECT_EQ(ctx.eventType().str(), "!equeue.event");
    EXPECT_EQ(ctx.tensorType({4, 4}, 32).str(), "tensor<4x4xi32>");
    EXPECT_EQ(ctx.bufferType({64}, 32).str(), "!equeue.buffer<64xi32>");
    EXPECT_EQ(ctx.memrefType({2, 3}, 16).str(), "memref<2x3xi16>");
}

TEST(TypeTest, NullHandleIsFalsey)
{
    ir::Type t;
    EXPECT_FALSE(static_cast<bool>(t));
}

} // namespace
