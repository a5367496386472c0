/**
 * @file
 * Scheduler: the daemon's worker pool with per-client fairness,
 * bounded queues, request deadlines, and cancellation.
 *
 * Work arrives tagged with a client id. Each client owns a FIFO; the
 * pool drains clients round-robin, one job per turn, so a client that
 * floods ten thousand sweep points cannot starve another client's
 * single simulate request — the second client's job runs after at
 * most (clients x 1) other jobs, not after the whole flood.
 *
 * Backpressure: each client's queue is capped, and the whole pool is
 * capped by maxQueuedTotal. A non-blocking submit is refused at
 * either cap (the server answers such requests with a structured
 * backpressure error carrying a retry_after hint — overload
 * shedding); a blocking submit — used for expanding a sweep's points
 * from the client's own reader thread — waits for space, which stalls
 * exactly that client's request stream and nobody else's. Jobs must
 * never submit blocking work themselves (worker threads don't drain
 * while blocked).
 *
 * Deadlines and cancellation: a task may carry an absolute deadline
 * and/or a shared cancel flag. Workers check both when they pop a
 * task and hand the job its Outcome instead of running the work —
 * an expired queue entry costs one callback (typically "send
 * deadline_exceeded"), not a simulation; a cancelled one (client
 * disconnected mid-sweep) costs only its bookkeeping. Submitting over
 * a full queue also purges that client's already-dead entries first,
 * so a queue full of expired work cannot wedge a client.
 */

#ifndef EQ_SERVE_SCHEDULER_HH
#define EQ_SERVE_SCHEDULER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace eq {
namespace serve {

struct SchedulerOptions {
    /** Worker threads; 0 = hardware concurrency (min 1). */
    unsigned workers = 0;
    /** Per-client queued-job cap (backpressure bound). */
    size_t maxQueuedPerClient = 256;
    /** Pool-wide queued-job cap across all clients; 0 = unlimited.
     *  Non-blocking submits over this cap are shed. */
    size_t maxQueuedTotal = 0;
};

class Scheduler {
  public:
    using Options = SchedulerOptions;
    using Clock = std::chrono::steady_clock;

    /** Why a job callback is being invoked. */
    enum class Outcome : uint8_t {
        Run,       ///< deadline and cancellation clear: do the work
        Expired,   ///< deadline passed while queued
        Cancelled, ///< cancel flag set while queued
    };

    using Job = std::function<void(Outcome)>;

    /** One unit of queued work. A default-constructed deadline means
     *  "none"; a null cancel flag means "not cancellable". */
    struct Task {
        Job job;
        Clock::time_point deadline{};
        std::shared_ptr<std::atomic<bool>> cancel;
    };

    enum class Submit : uint8_t {
        Queued,   ///< accepted
        Rejected, ///< client queue full (non-blocking submit only)
        Shed,     ///< pool-wide cap reached (non-blocking submit only)
        Stopped,  ///< scheduler is shutting down
    };

    struct Stats {
        uint64_t submitted = 0;
        uint64_t rejected = 0;  ///< per-client cap refusals
        uint64_t shed = 0;      ///< pool-wide cap refusals
        uint64_t executed = 0;  ///< jobs run with Outcome::Run
        uint64_t expired = 0;   ///< jobs handed Outcome::Expired
        uint64_t cancelled = 0; ///< jobs handed Outcome::Cancelled
        size_t queued = 0; ///< currently waiting across all clients
        size_t clients = 0; ///< clients holding a queue
    };

    explicit Scheduler(Options opts = {});
    ~Scheduler(); ///< stops without draining (stop() first to drain)

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Enqueue @p task for @p client. With @p block, waits for queue
     *  space instead of rejecting (never returns Rejected/Shed). */
    Submit submit(uint64_t client, Task task, bool block = false);

    /** Convenience for deadline-free, non-cancellable work. */
    Submit submit(uint64_t client, std::function<void()> job,
                  bool block = false)
    {
        Task task;
        task.job = [fn = std::move(job)](Outcome outcome) {
            if (outcome == Outcome::Run)
                fn();
        };
        return submit(client, std::move(task), block);
    }

    /** @p client will submit nothing more (its connection closed):
     *  drop its queue once it has drained, so clients that come and go
     *  leave nothing behind. */
    void release(uint64_t client);

    /** Finish every queued job, then stop the workers. Idempotent. */
    void stop();

    unsigned workers() const
    {
        return static_cast<unsigned>(_threads.size());
    }
    Stats stats() const;

  private:
    struct ClientQueue {
        std::deque<Task> jobs;
        bool inRoundRobin = false;
        bool released = false; ///< drop once drained (release())
    };

    void workerLoop();

    /** Pop dead (expired/cancelled) entries out of @p q into
     *  @p reaped. Caller holds _mu; callbacks run after unlock. */
    void reapDeadLocked(ClientQueue &q,
                        std::vector<std::pair<Task, Outcome>> *reaped);
    void finishReaped(std::vector<std::pair<Task, Outcome>> &reaped);

    /** The task's outcome if it started right now. */
    static Outcome outcomeFor(const Task &task, Clock::time_point now);

    Options _opts;
    mutable std::mutex _mu;
    std::condition_variable _work;  ///< workers wait here
    std::condition_variable _space; ///< blocking submitters wait here
    std::map<uint64_t, ClientQueue> _clients;
    std::deque<uint64_t> _rr; ///< clients with pending jobs, in turn order
    std::vector<std::thread> _threads;
    Stats _stats;
    size_t _queuedTotal = 0;
    bool _stopping = false;
};

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_SCHEDULER_HH
