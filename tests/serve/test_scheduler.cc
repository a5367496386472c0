/**
 * @file
 * Scheduler semantics: per-client round-robin (a flooding client
 * cannot starve a light one), bounded per-client queues (non-blocking
 * submits reject at the cap; blocking submits wait for space), drain
 * on stop, Stopped after stop — plus the hardening layer: deadlines
 * expire queued work, cancel tokens drop it, the pool-wide cap sheds,
 * and submitting over a queue full of dead entries reaps them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.hh"

namespace {

using namespace eq;
using serve::Scheduler;

/** Holds the (single) worker hostage until release() so tests can
 *  stage queue contents deterministically. */
struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    bool entered = false;

    std::function<void()>
    job()
    {
        return [this] {
            std::unique_lock<std::mutex> lk(mu);
            entered = true;
            cv.notify_all();
            cv.wait(lk, [this] { return open; });
        };
    }

    void
    awaitEntered()
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [this] { return entered; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> g(mu);
        open = true;
        cv.notify_all();
    }
};

TEST(ServeScheduler, RoundRobinInterleavesClients)
{
    Scheduler::Options opts;
    opts.workers = 1;
    Scheduler sched(opts);

    Gate gate;
    ASSERT_EQ(sched.submit(99, gate.job()), Scheduler::Submit::Queued);
    gate.awaitEntered(); // worker is now busy; queue order is ours

    std::mutex mu;
    std::vector<std::string> order;
    auto record = [&](const char *tag) {
        return [&, tag] {
            std::lock_guard<std::mutex> g(mu);
            order.push_back(tag);
        };
    };
    // Client 1 floods three jobs before client 2's single job arrives.
    sched.submit(1, record("1a"));
    sched.submit(1, record("1b"));
    sched.submit(1, record("1c"));
    sched.submit(2, record("2a"));

    gate.release();
    sched.stop(); // drains

    // One job per client turn: client 2 runs after one client-1 job,
    // not after the whole flood.
    std::vector<std::string> expect = {"1a", "2a", "1b", "1c"};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(sched.stats().executed, 5u);
    EXPECT_EQ(sched.stats().queued, 0u);
}

TEST(ServeScheduler, BackpressureRejectsAtCapAndBlocksForSpace)
{
    Scheduler::Options opts;
    opts.workers = 1;
    opts.maxQueuedPerClient = 2;
    Scheduler sched(opts);

    Gate gate;
    ASSERT_EQ(sched.submit(7, gate.job()), Scheduler::Submit::Queued);
    gate.awaitEntered();

    std::atomic<int> ran{0};
    auto bump = [&] { ++ran; };
    // Other clients' queues fill independently of client 7's.
    EXPECT_EQ(sched.submit(8, bump), Scheduler::Submit::Queued);
    EXPECT_EQ(sched.submit(8, bump), Scheduler::Submit::Queued);
    EXPECT_EQ(sched.submit(8, bump), Scheduler::Submit::Rejected);
    EXPECT_EQ(sched.submit(9, bump), Scheduler::Submit::Queued);
    EXPECT_EQ(sched.stats().rejected, 1u);

    // A blocking submit parks until the worker frees a slot.
    auto blocked = std::async(std::launch::async, [&] {
        return sched.submit(8, bump, /*block=*/true);
    });
    EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout);
    gate.release();
    EXPECT_EQ(blocked.get(), Scheduler::Submit::Queued);

    sched.stop();
    EXPECT_EQ(ran.load(), 4);
}

TEST(ServeScheduler, StopDrainsThenRefuses)
{
    Scheduler::Options opts;
    opts.workers = 2;
    Scheduler sched(opts);

    std::atomic<int> ran{0};
    const int kJobs = 32;
    for (int i = 0; i < kJobs; ++i)
        ASSERT_EQ(sched.submit(i % 3, [&] { ++ran; }),
                  Scheduler::Submit::Queued);
    sched.stop();
    EXPECT_EQ(ran.load(), kJobs); // every accepted job ran
    EXPECT_EQ(sched.stats().executed, uint64_t(kJobs));

    EXPECT_EQ(sched.submit(1, [&] { ++ran; }),
              Scheduler::Submit::Stopped);
    EXPECT_EQ(ran.load(), kJobs);
}

/** A released client keeps its queue only while it holds jobs: the
 *  worker that drains it drops it, and an idle one goes at once. */
TEST(ServeScheduler, ReleasedClientsLeaveNoQueueBehind)
{
    Scheduler::Options opts;
    opts.workers = 1;
    Scheduler sched(opts);

    Gate gate;
    ASSERT_EQ(sched.submit(1, gate.job()), Scheduler::Submit::Queued);
    gate.awaitEntered();
    std::atomic<int> ran{0};
    ASSERT_EQ(sched.submit(2, [&] { ++ran; }), Scheduler::Submit::Queued);
    sched.release(2); // still holds a job: dropped once drained
    sched.release(1); // its only job is running: dropped at once
    EXPECT_EQ(sched.stats().clients, 1u);

    gate.release();
    sched.stop();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(sched.stats().clients, 0u);
}

TEST(ServeScheduler, WorkerCountResolution)
{
    Scheduler::Options opts;
    opts.workers = 3;
    Scheduler sched(opts);
    EXPECT_EQ(sched.workers(), 3u);
}

TEST(ServeScheduler, ExpiredDeadlineHandsOutcomeExpired)
{
    Scheduler::Options opts;
    opts.workers = 1;
    Scheduler sched(opts);

    Gate gate;
    ASSERT_EQ(sched.submit(1, gate.job()), Scheduler::Submit::Queued);
    gate.awaitEntered(); // the deadline below elapses while queued

    std::atomic<int> ran{0}, expired{0};
    Scheduler::Task task;
    task.job = [&](Scheduler::Outcome outcome) {
        if (outcome == Scheduler::Outcome::Run)
            ++ran;
        else if (outcome == Scheduler::Outcome::Expired)
            ++expired;
    };
    task.deadline = Scheduler::Clock::now() -
                    std::chrono::milliseconds(1); // already past
    ASSERT_EQ(sched.submit(1, std::move(task)),
              Scheduler::Submit::Queued);

    gate.release();
    sched.stop();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(expired.load(), 1);
    EXPECT_EQ(sched.stats().expired, 1u);
}

TEST(ServeScheduler, CancelTokenHandsOutcomeCancelled)
{
    Scheduler::Options opts;
    opts.workers = 1;
    Scheduler sched(opts);

    Gate gate;
    ASSERT_EQ(sched.submit(1, gate.job()), Scheduler::Submit::Queued);
    gate.awaitEntered();

    auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::atomic<int> ran{0}, cancelled{0};
    for (int i = 0; i < 3; ++i) {
        Scheduler::Task task;
        task.job = [&](Scheduler::Outcome outcome) {
            if (outcome == Scheduler::Outcome::Run)
                ++ran;
            else if (outcome == Scheduler::Outcome::Cancelled)
                ++cancelled;
        };
        task.cancel = cancel;
        ASSERT_EQ(sched.submit(1, std::move(task)),
                  Scheduler::Submit::Queued);
    }
    cancel->store(true); // the "client disconnected" moment

    gate.release();
    sched.stop();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(cancelled.load(), 3);
    EXPECT_EQ(sched.stats().cancelled, 3u);
}

TEST(ServeScheduler, PoolWideCapSheds)
{
    Scheduler::Options opts;
    opts.workers = 1;
    opts.maxQueuedPerClient = 8;
    opts.maxQueuedTotal = 2;
    Scheduler sched(opts);

    Gate gate;
    ASSERT_EQ(sched.submit(1, gate.job()), Scheduler::Submit::Queued);
    gate.awaitEntered();

    std::atomic<int> ran{0};
    auto bump = [&] { ++ran; };
    // Two distinct clients fill the pool; a third is shed even though
    // its own queue is empty (pool-wide overload, not client flood).
    EXPECT_EQ(sched.submit(2, bump), Scheduler::Submit::Queued);
    EXPECT_EQ(sched.submit(3, bump), Scheduler::Submit::Queued);
    EXPECT_EQ(sched.submit(4, bump), Scheduler::Submit::Shed);
    EXPECT_EQ(sched.stats().shed, 1u);
    EXPECT_EQ(sched.stats().rejected, 0u);

    gate.release();
    sched.stop();
    EXPECT_EQ(ran.load(), 2);
}

TEST(ServeScheduler, SubmitOverFullQueueReapsDeadEntries)
{
    Scheduler::Options opts;
    opts.workers = 1;
    opts.maxQueuedPerClient = 2;
    Scheduler sched(opts);

    Gate gate;
    ASSERT_EQ(sched.submit(1, gate.job()), Scheduler::Submit::Queued);
    gate.awaitEntered();

    // Fill client 2's queue, then kill both entries via the token.
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::atomic<int> cancelled{0}, ran{0};
    for (int i = 0; i < 2; ++i) {
        Scheduler::Task task;
        task.job = [&](Scheduler::Outcome outcome) {
            if (outcome == Scheduler::Outcome::Cancelled)
                ++cancelled;
        };
        task.cancel = cancel;
        ASSERT_EQ(sched.submit(2, std::move(task)),
                  Scheduler::Submit::Queued);
    }
    cancel->store(true);

    // At the cap — but the dead entries are reaped, so this fresh
    // non-blocking submit is accepted, not rejected.
    EXPECT_EQ(sched.submit(2, [&] { ++ran; }),
              Scheduler::Submit::Queued);
    EXPECT_EQ(cancelled.load(), 2); // reaped synchronously on submit
    EXPECT_EQ(sched.stats().cancelled, 2u);

    gate.release();
    sched.stop();
    EXPECT_EQ(ran.load(), 1);
}

} // namespace
