/**
 * @file
 * Interned operation identity: OpId density and stability, the
 * per-class id() caches, Operation::opId assignment, and the isa<>
 * helper built on integer comparison.
 */

#include <gtest/gtest.h>

#include <set>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "testutil.hh"

namespace {

using namespace eq;

TEST(OpIdTest, InterningIsIdempotent)
{
    ir::Context ctx;
    ir::OpId a = ctx.internOpName("test.foo");
    ir::OpId b = ctx.internOpName("test.foo");
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a, b);
    EXPECT_EQ(ctx.opName(a), "test.foo");
}

TEST(OpIdTest, DistinctNamesGetDistinctDenseIds)
{
    ir::Context ctx;
    ir::OpId a = ctx.internOpName("test.a");
    ir::OpId b = ctx.internOpName("test.b");
    EXPECT_NE(a, b);
    EXPECT_LT(a.raw(), ctx.numInternedOpNames());
    EXPECT_LT(b.raw(), ctx.numInternedOpNames());
}

TEST(OpIdTest, LookupOfUnknownNameIsInvalid)
{
    ir::Context ctx;
    EXPECT_FALSE(ctx.lookupOpId("never.interned").valid());
}

TEST(OpIdTest, EveryRegisteredOpInternsToAStableUniqueId)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    std::set<uint32_t> seen;
    for (const std::string &name : ctx.registeredOpNames()) {
        ir::OpId id = ctx.lookupOpId(name);
        ASSERT_TRUE(id.valid()) << name;
        // Dense: every id indexes into [0, numInternedOpNames).
        EXPECT_LT(id.raw(), ctx.numInternedOpNames()) << name;
        // Unique per name.
        EXPECT_TRUE(seen.insert(id.raw()).second) << name;
        // Stable: re-interning returns the same id; the pooled string
        // round-trips.
        EXPECT_EQ(ctx.internOpName(name), id) << name;
        EXPECT_EQ(ctx.opName(id), name);
        // Registry resolves by id and by name to the same record.
        EXPECT_EQ(ctx.lookupOp(id), ctx.lookupOp(name)) << name;
    }
}

TEST(OpIdTest, CachedDialectIdsMatchContextLookup)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    EXPECT_EQ(equeue::LaunchOp::id(ctx),
              ctx.lookupOpId(equeue::LaunchOp::opName));
    EXPECT_EQ(affine::ForOp::id(ctx),
              ctx.lookupOpId(affine::ForOp::opName));
    EXPECT_EQ(arith::AddIOp::id(ctx),
              ctx.lookupOpId(arith::AddIOp::opName));
    // Cached access is idempotent.
    EXPECT_EQ(equeue::LaunchOp::id(ctx), equeue::LaunchOp::id(ctx));
}

TEST(OpIdTest, CachedIdsAreResolvedPerContext)
{
    // Two contexts that intern the same names in a different order must
    // each resolve the cache to their own id.
    ir::Context c1;
    c1.internOpName("test.pad"); // shift ids in c1 only
    ir::registerAllDialects(c1);
    ir::Context c2;
    ir::registerAllDialects(c2);
    EXPECT_EQ(equeue::ReadOp::id(c1),
              c1.lookupOpId(equeue::ReadOp::opName));
    EXPECT_EQ(equeue::ReadOp::id(c2),
              c2.lookupOpId(equeue::ReadOp::opName));
    EXPECT_NE(equeue::ReadOp::id(c1).raw(),
              equeue::ReadOp::id(c2).raw());
}

class OpIdModuleTest : public test::RegisteredModuleTest {};

TEST_F(OpIdModuleTest, OperationsCarryTheirInternedId)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    EXPECT_EQ(proc->opId(), equeue::CreateProcOp::id(ctx));
    EXPECT_EQ(&proc->name(), &ctx.opName(proc->opId()))
        << "op name should alias the context pool, not own a copy";
}

TEST_F(OpIdModuleTest, IsaMatchesExactOpKind)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b->create<equeue::ControlStartOp>();
    EXPECT_TRUE(ir::isa<equeue::CreateProcOp>(proc.op()));
    EXPECT_FALSE(ir::isa<equeue::ControlStartOp>(proc.op()));
    EXPECT_TRUE(ir::isa<equeue::ControlStartOp>(start.op()));
    EXPECT_FALSE(ir::isa<equeue::CreateProcOp>(nullptr));
}

TEST_F(OpIdModuleTest, ClonePreservesOpId)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("MAC"));
    std::map<ir::ValueImpl *, ir::Value> mapping;
    ir::Operation *copy = proc->clone(mapping);
    EXPECT_EQ(copy->opId(), proc->opId());
    EXPECT_EQ(copy->name(), proc->name());
    copy->erase();
}

} // namespace
