/**
 * @file
 * IR storage costs about one allocation per operation: building an 8x8
 * systolic module in a reused Context and dropping it again stay within
 * a small, fixed number of heap allocations and frees per op.
 *
 * This is its own binary because it replaces the global operator new
 * and delete with counting ones; counting is switched on only around
 * the measured build and teardown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "ir/builder.hh"
#include "systolic/generator.hh"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gAllocs{0};
std::atomic<uint64_t> gFrees{0};

void
countFree(void *p)
{
    if (p && gCounting.load(std::memory_order_relaxed))
        gFrees.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// Out of line, so the compiler never pairs an inlined free() with the
// operator new call it sees at a delete site.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    countFree(p);
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    countFree(p);
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    countFree(p);
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    countFree(p);
    std::free(p);
}

namespace {

using namespace eq;

/** The 8x8 point: c=2, h=w=8, n=4, 2x2 filters. */
scalesim::Config
config8x8()
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 8;
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 4;
    cfg.fh = cfg.fw = 2;
    return cfg;
}

size_t
countOps(ir::Operation *module)
{
    size_t n = 0;
    module->walk([&](ir::Operation *) { ++n; });
    return n;
}

struct Costs {
    size_t ops;
    uint64_t buildAllocs;
    uint64_t dropFrees;
};

/** Build and drop the 8x8 module in @p ctx, counting each phase. */
Costs
buildAndDrop(ir::Context &ctx)
{
    gAllocs = 0;
    gCounting = true;
    ir::OwningOpRef module = systolic::buildSystolicModule(ctx, config8x8());
    gCounting = false;
    Costs c{countOps(module.get()), gAllocs.load(), 0};
    gFrees = 0;
    gCounting = true;
    module.reset();
    gCounting = false;
    c.dropFrees = gFrees.load();
    return c;
}

TEST(IrAlloc, BuildAndTeardownCostAboutOneAllocationPerOp)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    // The first build interns the module's types and op names; a
    // session's later builds reuse them, so measure the second.
    buildAndDrop(ctx);
    Costs c = buildAndDrop(ctx);
    ASSERT_GT(c.ops, 1000u);
    EXPECT_LE(c.buildAllocs, 4 * c.ops)
        << c.buildAllocs << " allocations building " << c.ops << " ops";
    EXPECT_LE(c.dropFrees, 2 * c.ops)
        << c.dropFrees << " frees dropping " << c.ops << " ops";
}

} // namespace
