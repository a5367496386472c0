#include "serve/scheduler.hh"

#include <utility>

namespace eq {
namespace serve {

namespace {

unsigned
resolveWorkers(unsigned requested)
{
    if (requested)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace

Scheduler::Scheduler(Options opts) : _opts(opts)
{
    if (_opts.maxQueuedPerClient < 1)
        _opts.maxQueuedPerClient = 1;
    unsigned n = resolveWorkers(_opts.workers);
    _threads.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        _threads.emplace_back([this] { workerLoop(); });
}

Scheduler::~Scheduler()
{
    stop();
}

Scheduler::Outcome
Scheduler::outcomeFor(const Task &task, Clock::time_point now)
{
    if (task.cancel && task.cancel->load(std::memory_order_relaxed))
        return Outcome::Cancelled;
    if (task.deadline != Clock::time_point{} && now > task.deadline)
        return Outcome::Expired;
    return Outcome::Run;
}

void
Scheduler::reapDeadLocked(ClientQueue &q,
                          std::vector<std::pair<Task, Outcome>> *reaped)
{
    const Clock::time_point now = Clock::now();
    auto it = q.jobs.begin();
    while (it != q.jobs.end()) {
        Outcome outcome = outcomeFor(*it, now);
        if (outcome == Outcome::Run) {
            ++it;
            continue;
        }
        reaped->emplace_back(std::move(*it), outcome);
        it = q.jobs.erase(it);
        --_stats.queued;
        --_queuedTotal;
        if (outcome == Outcome::Expired)
            ++_stats.expired;
        else
            ++_stats.cancelled;
    }
}

void
Scheduler::finishReaped(std::vector<std::pair<Task, Outcome>> &reaped)
{
    for (auto &dead : reaped)
        dead.first.job(dead.second);
    if (!reaped.empty())
        _space.notify_all();
    reaped.clear();
}

Scheduler::Submit
Scheduler::submit(uint64_t client, Task task, bool block)
{
    std::vector<std::pair<Task, Outcome>> reaped;
    Submit result;
    {
        std::unique_lock<std::mutex> lk(_mu);
        for (;;) {
            if (_stopping) {
                result = Submit::Stopped;
                break;
            }
            ClientQueue &q = _clients[client];
            auto clientFull = [&] {
                return q.jobs.size() >= _opts.maxQueuedPerClient;
            };
            auto poolFull = [&] {
                return _opts.maxQueuedTotal &&
                       _queuedTotal >= _opts.maxQueuedTotal;
            };
            if (clientFull() || poolFull()) {
                // Entries that already expired or were cancelled are
                // dead weight: drop them first and re-check, so a
                // queue full of dead work cannot wedge its client.
                reapDeadLocked(q, &reaped);
            }
            if (clientFull() || poolFull()) {
                if (!block) {
                    // A full pool with a non-full client queue is the
                    // pool-wide overload case (shed); otherwise the
                    // client exceeded its own bound.
                    if (clientFull()) {
                        ++_stats.rejected;
                        result = Submit::Rejected;
                    } else {
                        ++_stats.shed;
                        result = Submit::Shed;
                    }
                    break;
                }
                _space.wait(lk);
                continue;
            }
            q.jobs.push_back(std::move(task));
            if (!q.inRoundRobin) {
                q.inRoundRobin = true;
                _rr.push_back(client);
            }
            ++_stats.submitted;
            ++_stats.queued;
            ++_queuedTotal;
            _work.notify_one();
            result = Submit::Queued;
            break;
        }
    }
    finishReaped(reaped);
    return result;
}

void
Scheduler::workerLoop()
{
    std::unique_lock<std::mutex> lk(_mu);
    for (;;) {
        while (_rr.empty() && !_stopping)
            _work.wait(lk);
        if (_rr.empty() && _stopping)
            return; // drained
        // One job per client turn: take the head of the next client's
        // FIFO, then rotate the client to the back if it still has
        // work.
        uint64_t client = _rr.front();
        _rr.pop_front();
        auto it = _clients.find(client);
        ClientQueue &q = it->second;
        // Out of the rotation, a released client's queue is dropped.
        auto leaveRotation = [&] {
            if (q.released)
                _clients.erase(it);
            else
                q.inRoundRobin = false;
        };
        if (q.jobs.empty()) {
            // Reaping can empty a queue whose turn marker is still in
            // the rotation.
            leaveRotation();
            continue;
        }
        Task task = std::move(q.jobs.front());
        q.jobs.pop_front();
        if (q.jobs.empty())
            leaveRotation();
        else
            _rr.push_back(client);
        --_stats.queued;
        --_queuedTotal;
        _space.notify_all();
        lk.unlock();
        // Deadline and cancellation are checked at the last moment
        // before the work would start: an entry that died in the
        // queue costs one callback, never a simulation.
        Outcome outcome = outcomeFor(task, Clock::now());
        task.job(outcome);
        lk.lock();
        switch (outcome) {
        case Outcome::Run: ++_stats.executed; break;
        case Outcome::Expired: ++_stats.expired; break;
        case Outcome::Cancelled: ++_stats.cancelled; break;
        }
    }
}

void
Scheduler::release(uint64_t client)
{
    std::lock_guard<std::mutex> g(_mu);
    auto it = _clients.find(client);
    if (it == _clients.end())
        return;
    // A queue out of the rotation is empty; one still in it is dropped
    // by the worker that takes its turn marker once it has drained.
    if (it->second.inRoundRobin)
        it->second.released = true;
    else
        _clients.erase(it);
}

void
Scheduler::stop()
{
    {
        std::lock_guard<std::mutex> g(_mu);
        if (_stopping && _threads.empty())
            return;
        _stopping = true;
    }
    _work.notify_all();
    _space.notify_all();
    for (auto &t : _threads)
        if (t.joinable())
            t.join();
    _threads.clear();
}

Scheduler::Stats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> g(_mu);
    Stats s = _stats;
    s.clients = _clients.size();
    return s;
}

} // namespace serve
} // namespace eq
