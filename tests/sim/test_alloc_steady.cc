/**
 * @file
 * Warm compiled runs reach an allocation-free steady state: every
 * allocation the engine makes per launch, event or op has a home that
 * survives reset(), so a re-run of a pinned module only allocates what
 * it elaborates (components) and reports. The cold run of a second
 * module in one Session is pinned too: it compiles, but reuses the
 * engine's tables and the previous module's buffers.
 *
 * This is its own binary because it replaces the global operator new
 * with a counting one; counting is switched on only around the
 * measured run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "scalesim/scalesim.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gAllocs{0};

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
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace eq;

struct WarmRun {
    uint64_t allocs;
    uint64_t events;
};

/** Allocations made by one warm run of the default 8x8 @p df point. */
WarmRun
warmRun(scalesim::Dataflow df)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 8;
    cfg.dataflow = df;
    sim::Session session;
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, cfg);
    });
    // The first run lowers and fuses; the next ones size the pools.
    for (int i = 0; i < 3; ++i)
        session.run();
    gAllocs = 0;
    gCounting = true;
    sim::SimReport report = session.run();
    gCounting = false;
    return {gAllocs.load(), report.eventsExecuted};
}

bool
compiledDefault()
{
    return sim::Simulator().backend() == sim::Backend::Compiled;
}

TEST(AllocSteady, WarmRunsAllocateBelowOnePerLaunch)
{
    if (!compiledDefault())
        GTEST_SKIP() << "the interpreter oracle is not pooled";
    WarmRun ws = warmRun(scalesim::Dataflow::WS);
    WarmRun is = warmRun(scalesim::Dataflow::IS);
    EXPECT_LE(ws.allocs, 1000u);
    EXPECT_LE(is.allocs, 1000u);
    // IS runs ten times the events of WS on the same hardware: no
    // count may grow with launches or events.
    EXPECT_GT(is.events, 5 * ws.events);
    EXPECT_LE(is.allocs, ws.allocs + ws.allocs / 10);
    EXPECT_GE(is.allocs + ws.allocs / 10, ws.allocs);
}

} // namespace

namespace {

/** Allocations made by the cold run of a freshly built @p measured
 *  module in a Session that just ran @p first (a sweep's next point). */
uint64_t
coldRunAfter(const scalesim::Config &first,
             const scalesim::Config &measured)
{
    sim::Session session;
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, first);
    });
    session.run();
    session.rebuild([&](ir::Context &ctx) {
        return systolic::buildSystolicModule(ctx, measured);
    });
    gAllocs = 0;
    gCounting = true;
    session.run();
    gCounting = false;
    return gAllocs.load();
}

TEST(AllocSteady, ColdRunOfASecondModule)
{
    if (!compiledDefault())
        GTEST_SKIP() << "the interpreter oracle is not pooled";
    // A Session rebuilt in place, without releasePools (which a
    // recycled program-cache entry calls first): a freshly built
    // module's first run in a Session that already ran one. It
    // numbers, fingerprints and compiles its scopes (one program per
    // launch-body shape, not per body), elaborates its components and
    // reuses the previous run's buffers and dispatch tables. Before bodies shared programs and
    // buffers and tables outlived a module, this run made 4,172
    // allocations after the same config and 4,208 after another; now
    // ~1,260 and ~1,300.
    scalesim::Config ws;
    ws.ah = ws.aw = 8;
    scalesim::Config is = ws;
    is.dataflow = scalesim::Dataflow::IS;
    EXPECT_LE(coldRunAfter(ws, ws), 1500u);
    EXPECT_LE(coldRunAfter(is, ws), 1500u);
}

} // namespace
