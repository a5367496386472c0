/**
 * @file
 * The engine's process-wide op table (lookupOpEntry) against the
 * per-name path it caches (computeOpEntry, CostModel::staticOpCycles):
 * every registered op name, a few unregistered ones and every cost
 * class must resolve the same either way. Two threads building their
 * contexts' tables at once exercise the table's one-time build (the
 * sanitizer job runs this suite).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dialects/arith.hh"
#include "ir/builder.hh"
#include "sim/engine_impl.hh"

namespace {

using namespace eq;

void
expectSameEntry(const std::string &name)
{
    SCOPED_TRACE(name);
    sim::OpEntry table = sim::lookupOpEntry(name);
    sim::OpEntry computed = sim::computeOpEntry(name);
    EXPECT_TRUE(table.handler == computed.handler);
    EXPECT_EQ(table.mop, computed.mop);
    for (unsigned cls = 0; cls < sim::kNumCostClasses; ++cls) {
        EXPECT_EQ(table.cost[cls], computed.cost[cls]) << "class " << cls;
        EXPECT_EQ(table.cost[cls],
                  sim::CostModel::staticOpCycles(
                      static_cast<sim::CostClass>(cls), name))
            << "class " << cls;
    }
}

/** Simulate a one-op module in a context of its own (builds the
 *  simulator's dispatch tables from the process-wide table). */
uint64_t
simulateTinyModule()
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    b.create<arith::ConstantOp>(int64_t(1), ctx.i32Type());
    sim::Simulator s;
    return s.simulate(module.get()).cycles;
}

// First in the file, so in a whole-binary run the two threads race to
// build the table (ctest runs each case in a fresh process anyway).
TEST(OpTable, TwoContextsBuildTablesInTwoThreadsAtOnce)
{
    uint64_t cycles[2] = {~uint64_t(0), ~uint64_t(0)};
    std::thread a([&] { cycles[0] = simulateTinyModule(); });
    std::thread b([&] { cycles[1] = simulateTinyModule(); });
    a.join();
    b.join();
    EXPECT_EQ(cycles[0], 0u);
    EXPECT_EQ(cycles[1], 0u);
}

TEST(OpTable, EveryRegisteredNameMatchesTheStringPath)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    std::vector<std::string> names = ctx.registeredOpNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names)
        expectSameEntry(name);
}

TEST(OpTable, UnregisteredNamesMatchTheStringPath)
{
    for (const char *name : {"arith.foo", "linalg.bar", "custom.op"})
        expectSameEntry(name);
}

TEST(OpTable, KnownEntries)
{
    sim::OpEntry addi = sim::lookupOpEntry("arith.addi");
    EXPECT_TRUE(addi.handler == &sim::BlockExec::execAddI);
    EXPECT_EQ(addi.mop, sim::MOp::AddI);
    EXPECT_EQ(addi.cost[static_cast<unsigned>(sim::CostClass::MAC)], 1u);
    EXPECT_EQ(addi.cost[static_cast<unsigned>(sim::CostClass::DMA)], 0u);

    // Dialect-prefix fallbacks.
    sim::OpEntry foo = sim::lookupOpEntry("arith.foo");
    EXPECT_TRUE(foo.handler == &sim::BlockExec::execArithUnsupported);
    EXPECT_EQ(foo.mop, sim::MOp::Bad);
    sim::OpEntry bar = sim::lookupOpEntry("linalg.bar");
    EXPECT_TRUE(bar.handler == &sim::BlockExec::execLinalg);
    EXPECT_EQ(bar.mop, sim::MOp::LinalgOther);
    EXPECT_EQ(bar.cost[static_cast<unsigned>(sim::CostClass::Scalar)],
              sim::CostModel::kDynamic);

    // No handler at all: uninterpretable, costed like a scalar op.
    sim::OpEntry custom = sim::lookupOpEntry("custom.op");
    EXPECT_TRUE(custom.handler == nullptr);
    EXPECT_EQ(custom.mop, sim::MOp::Bad);
    EXPECT_EQ(custom.cost[static_cast<unsigned>(sim::CostClass::Scalar)],
              1u);
}

} // namespace
