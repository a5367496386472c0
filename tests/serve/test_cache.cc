/**
 * @file
 * ProgramCache semantics: cross-request reuse (hit/miss/run counters),
 * LRU eviction order with touch-on-hit, warm runs byte-identical to
 * cold ones, eviction never invalidating a pinned entry, hash-hit
 * full-equality verification under forced collisions (the
 * acquireHashed seam), a multi-threaded hammer where each distinct
 * config compiles exactly once, and session recycling: an evicted idle
 * entry's Session is rebuilt for the next key, held entries are
 * skipped, and a failed rebuild stays retryable.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hh"
#include "serve/faults.hh"
#include "serve/models.hh"
#include "serve/protocol.hh"

namespace {

using namespace eq;
using serve::ModelKey;
using serve::ProgramCache;

ModelKey
systolicKey(int ah, int aw, int h = 8)
{
    ModelKey key = serve::defaultKey(serve::ModelKind::Systolic);
    key.systolic.ah = ah;
    key.systolic.aw = aw;
    key.systolic.h = h;
    return key;
}

std::string
deterministicReport(const sim::SimReport &report)
{
    return serve::reportToJson(report, /*include_wall=*/false).dump();
}

TEST(ServeCache, ColdThenWarm)
{
    ProgramCache cache(4);
    ModelKey key = systolicKey(2, 2);

    auto cold = cache.acquire(key);
    EXPECT_FALSE(cold.warm());
    sim::SimReport coldReport = cold.run();

    auto warmHandle = cache.acquire(key);
    EXPECT_TRUE(warmHandle.warm());
    sim::SimReport warmReport = warmHandle.run();

    // Cached (Session-pinned) reruns are byte-identical to the
    // first, freshly compiled run.
    EXPECT_EQ(deterministicReport(coldReport),
              deterministicReport(warmReport));

    ProgramCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.runs, 2u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.collisions, 0u);
}

TEST(ServeCache, LruEvictionOrder)
{
    ProgramCache cache(2);
    ModelKey a = systolicKey(2, 2);
    ModelKey b = systolicKey(2, 4);
    ModelKey c = systolicKey(4, 2);

    cache.acquire(a);
    cache.acquire(b);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_TRUE(cache.contains(b));

    // Touch a so b becomes least-recently-used, then insert c.
    cache.acquire(a);
    cache.acquire(c);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);

    // Without the touch, the insertion-older entry goes first.
    cache.acquire(b); // evicts a (LRU after c's insert touched c)
    EXPECT_FALSE(cache.contains(a));
    EXPECT_TRUE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(ServeCache, EvictionNeverInvalidatesPinnedHandles)
{
    ProgramCache cache(1);
    ModelKey a = systolicKey(2, 2);
    ModelKey b = systolicKey(2, 4);

    auto pinned = cache.acquire(a);
    sim::SimReport before = pinned.run();
    cache.acquire(b).run(); // evicts a from the cache's index
    EXPECT_FALSE(cache.contains(a));

    // The outstanding handle still owns the entry and keeps running.
    sim::SimReport after = pinned.run();
    EXPECT_EQ(deterministicReport(before), deterministicReport(after));

    // A fresh acquire of a recompiles (miss, not hit).
    auto again = cache.acquire(a);
    EXPECT_FALSE(again.warm());
}

TEST(ServeCache, ForcedHashCollisionIsVerifiedNotReused)
{
    ProgramCache cache(8);
    ModelKey a = systolicKey(2, 2);
    ModelKey b = systolicKey(4, 4); // different program, same forced hash
    const uint64_t hash = 0xdeadbeefcafef00dull;

    auto ha = cache.acquireHashed(hash, a);
    auto hb = cache.acquireHashed(hash, b);
    EXPECT_FALSE(ha.warm());
    EXPECT_FALSE(hb.warm()); // full operator== saw through the collision
    EXPECT_EQ(cache.stats().collisions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);

    // Each handle runs its own key's program, not the bucket head's.
    sim::SimReport ra = ha.run();
    sim::SimReport rb = hb.run();
    EXPECT_NE(ra.opsExecuted, rb.opsExecuted);
    EXPECT_TRUE(ha.key() == a);
    EXPECT_TRUE(hb.key() == b);

    // Re-acquiring under the same forced hash hits the right entry.
    auto again = cache.acquireHashed(hash, b);
    EXPECT_TRUE(again.warm());
    EXPECT_EQ(deterministicReport(again.run()),
              deterministicReport(rb));
}

TEST(ServeCache, HammerCompilesEachConfigOnce)
{
    const int kThreads = 4;
    const int kIters = 6;
    std::vector<ModelKey> keys = {systolicKey(2, 2), systolicKey(2, 4),
                                  systolicKey(4, 2)};
    ProgramCache cache(8);

    // Reference reports, one per config, from a separate cold cache.
    std::vector<std::string> expect;
    {
        ProgramCache reference(8);
        for (const ModelKey &key : keys)
            expect.push_back(
                deterministicReport(reference.acquire(key).run()));
    }

    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                size_t k = size_t(t + i) % keys.size();
                auto handle = cache.acquire(keys[k]);
                if (deterministicReport(handle.run()) != expect[k])
                    ++failures[t];
            }
        });
    }
    for (auto &th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
    ProgramCache::Stats stats = cache.stats();
    // The global-mutex lookup window guarantees one miss (one compile)
    // per distinct config no matter how the threads raced.
    EXPECT_EQ(stats.misses, keys.size());
    EXPECT_EQ(stats.hits, uint64_t(kThreads * kIters) - keys.size());
    EXPECT_EQ(stats.runs, uint64_t(kThreads * kIters));
}

TEST(ServeCache, InjectedBuildFailureLeavesEntryRetryable)
{
    ProgramCache cache(4);
    ModelKey key = systolicKey(2, 2);
    {
        serve::FaultInjector::Scoped faults("build=1,max=1");
        auto handle = cache.acquire(key);
        EXPECT_FALSE(handle.warm());
        // The injected failure propagates through Session::rebuild
        // like a real one.
        EXPECT_THROW(handle.run(), Error);
        EXPECT_EQ(serve::FaultInjector::stats().buildFaults, 1u);
    }
    // The entry was left coherently un-built, not poisoned: the next
    // handle retries the compile from scratch and runs.
    auto again = cache.acquire(key);
    sim::SimReport report = again.run();
    EXPECT_GT(report.cycles, 0);
    // The failed first run never counted as a cache run.
    EXPECT_EQ(cache.stats().runs, 1u);
}

/** The report of a freshly constructed Session running @p key. */
std::string
freshSessionReport(const ModelKey &key)
{
    sim::Session session;
    session.rebuild([&](ir::Context &ctx) { return key.build(ctx); });
    return deterministicReport(session.run());
}

TEST(ServeCache, EvictedIdleSessionIsRecycled)
{
    ProgramCache cache(1);
    ModelKey a = systolicKey(2, 2);
    ModelKey b = systolicKey(4, 2, 6);

    cache.acquire(a).run();
    auto handle = cache.acquire(b); // evicts a and takes its session
    EXPECT_FALSE(handle.warm());
    ProgramCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.recycled, 1u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_FALSE(cache.contains(a));

    // The rebuilt session runs b exactly as a fresh Session does, on
    // its first and on a warm run.
    const std::string expect = freshSessionReport(b);
    EXPECT_EQ(deterministicReport(handle.run()), expect);
    EXPECT_GT(handle.buildSeconds(), 0.0);
    EXPECT_EQ(deterministicReport(handle.run()), expect);
    EXPECT_EQ(handle.buildSeconds(), 0.0); // reused the program
}

TEST(ServeCache, HeldLruEntryIsSkipped)
{
    ProgramCache cache(2);
    ModelKey a = systolicKey(2, 2);
    ModelKey b = systolicKey(2, 4);
    ModelKey c = systolicKey(4, 2);

    auto pinned = cache.acquire(a);
    const std::string before = deterministicReport(pinned.run());
    cache.acquire(b).run();
    // a is least recently used but held, so b is the one recycled.
    cache.acquire(c).run();
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
    EXPECT_EQ(cache.stats().recycled, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(deterministicReport(pinned.run()), before);
    EXPECT_TRUE(cache.acquire(a).warm());
}

TEST(ServeCache, InjectedBuildFailureOnRecycledEntryIsRetryable)
{
    ProgramCache cache(1);
    ModelKey a = systolicKey(2, 2);
    ModelKey b = systolicKey(2, 4);
    cache.acquire(a).run();
    {
        serve::FaultInjector::Scoped faults("build=1,max=1");
        auto handle = cache.acquire(b);
        EXPECT_THROW(handle.run(), Error);
    }
    EXPECT_EQ(cache.stats().recycled, 1u);
    // The recycled entry stays cached, un-built: the next handle
    // rebuilds it and runs like a fresh Session.
    auto again = cache.acquire(b);
    EXPECT_TRUE(again.warm());
    EXPECT_EQ(deterministicReport(again.run()), freshSessionReport(b));
    EXPECT_EQ(cache.stats().runs, 2u);
}

TEST(ServeCache, DefaultCapacity)
{
    // A capacity of 0 selects the documented default of 32 entries.
    EXPECT_EQ(ProgramCache::defaultEntries(), 32u);
    ProgramCache cache(0);
    EXPECT_EQ(cache.stats().capacity, 32u);
}

} // namespace
