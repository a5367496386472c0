/**
 * @file
 * IR storage costs well under one heap allocation per operation: the
 * Context's IR store (ir/store.hh) holds the ops, and a build in a
 * reused Context carves them from the chunks the last module left.
 * Rebuilding an 8x8 systolic module makes at most one heap allocation
 * per two ops, and dropping it at most one free per ten ops; what is
 * left is the module's array attributes and its generator's temporaries.
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
/** When positive, the allocation of gFailSize bytes that brings it to
 *  0 throws std::bad_alloc. */
std::atomic<size_t> gFailSize{0};
std::atomic<int> gFailIn{0};

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
    if (n == gFailSize.load() && gFailIn.load() > 0 && --gFailIn == 0)
        throw std::bad_alloc();
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
    EXPECT_LE(2 * c.buildAllocs, c.ops)
        << c.buildAllocs << " allocations building " << c.ops << " ops";
    EXPECT_LE(10 * c.dropFrees, c.ops)
        << c.dropFrees << " frees dropping " << c.ops << " ops";
}

TEST(IrAlloc, ABuildThatRunsOutOfMemoryStillRewindsTheStore)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    scalesim::Config big = config8x8();
    big.ah = big.aw = 32;
    // Far more chunks than the store keeps: the failure comes after
    // the first kRetainedChunks are all carved.
    gFailSize = ir::IrStore::kChunkBytes;
    gFailIn = 2 * ir::IrStore::kRetainedChunks;
    EXPECT_THROW(systolic::buildSystolicModule(ctx, big), std::bad_alloc);
    EXPECT_EQ(gFailIn.load(), 0);
    // The half-built module died while unwinding, so the store holds
    // no live block: it rewound, kept its first chunks and freed the
    // rest.
    EXPECT_EQ(ctx.irStore().unusedBytes(),
              ir::IrStore::kRetainedChunks * ir::IrStore::kChunkBytes);
    ir::OwningOpRef module = systolic::buildSystolicModule(ctx, config8x8());
    EXPECT_EQ(module->verify(), "");
}

TEST(IrAlloc, AnOpWhoseAttributesRunOutOfMemoryGivesItsBlockBack)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    const ir::Type proc = ctx.procType();
    // Too long for std::string's inline buffer: copying it into the op
    // allocates, and that allocation fails.
    const std::string kind(40, 'x');
    ir::AttrDict attrs;
    attrs.set("kind", ir::Attribute::string(kind));
    gFailSize = kind.size() + 1;
    gFailIn = 1;
    EXPECT_THROW(ir::Operation::create(ctx, "equeue.create_proc", {proc},
                                       {}, attrs),
                 std::bad_alloc);
    EXPECT_EQ(gFailIn.load(), 0);
    // The op's block went back, so nothing is live and the store
    // rewound with its one chunk unused.
    EXPECT_EQ(ctx.irStore().unusedBytes(), ir::IrStore::kChunkBytes);
}

} // namespace
