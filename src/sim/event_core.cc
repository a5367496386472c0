/**
 * @file
 * The engine's event core: discrete-event heap, event lifecycle and
 * dependency subscription, and the per-processor FIFO issue logic of
 * §III-D (launch enqueues an event; the queue head issues once its
 * dependencies complete; each processor executes one event at a time).
 */

#include <algorithm>
#include <charconv>

#include "dialects/equeue.hh"
#include "sim/compiled_exec.hh"
#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

void
Simulator::Impl::reset(bool keep_numbering)
{
    components.clear();
    // Keep exactly the last run's buffers for elabAlloc to reuse by
    // position, whatever module comes next: a sweep's consecutive
    // points allocate mostly the same shapes in the same order, and a
    // buffer that does not line up is simply replaced.
    buffers.resize(numBuffers);
    numBuffers = 0;
    events.clear();
    // Execs still suspended (a run that deadlocked or threw) rejoin
    // the pools too.
    freeBlockExecs.clear();
    for (auto &x : blockExecs) {
        x->release();
        freeBlockExecs.push_back(x.get());
    }
    freeExecs.clear();
    for (auto &x : compiledExecs) {
        x->release();
        freeExecs.push_back(x.get());
    }
    streamWaiters.clear();
    heap.clear();
    nowQ.clear();
    nowHead = 0;
    joins.clear();
    freeJoins.clear();
    seqCounter = 0;
    now = 0;
    endTime = 0;
    ffEnabled = false;
    ffShift = 0;
    ffIterations = 0;
    eventsExecuted = 0;
    opsExecuted = 0;
    dispatchCount = 0;
    labelCounters.fill(0);
    if (!keep_numbering)
        dropNumbering();
    traceData.clear();
    rootProc = std::make_unique<Processor>("host", "Root");
}

void
Simulator::Impl::opBudgetExceeded() const
{
    throw SimError(ErrorCode::ResourceExhausted,
                   detail::formatMessage("interpreted op budget exceeded (",
                                         opts.maxOps, "); runaway program?"));
}

void
Simulator::Impl::deadlocked()
{
    // Name at most this many stuck events and blocked streams.
    constexpr size_t kNamed = 8;
    const std::vector<const Event *> stuck = events.liveEvents();
    std::string msg = "deadlock: " + std::to_string(stuck.size()) +
                      " event(s) never completed:";
    for (size_t i = 0; i < stuck.size() && i < kNamed; ++i) {
        const Event &ev = *stuck[i];
        msg += i ? ", " : " ";
        msg += ev.op                        ? ev.op->name()
               : ev.kind == Event::Kind::And ? "equeue.control_and"
                                             : "equeue.control_or";
        if (ev.proc)
            msg += " on " + ev.proc->name();
    }
    if (stuck.size() > kNamed)
        msg += ", ...";
    std::vector<std::string> streams;
    for (const auto &[fifo, waiters] : streamWaiters)
        if (!waiters.empty())
            streams.push_back(fifo->name() + " (" +
                              std::to_string(waiters.size()) + ")");
    std::sort(streams.begin(), streams.end());
    for (size_t i = 0; i < streams.size() && i < kNamed; ++i)
        msg += (i ? ", " : "; streams with waiting readers: ") + streams[i];
    if (streams.size() > kNamed)
        msg += ", ...";
    throw SimError(ErrorCode::Deadlock, msg);
}

void
Simulator::Impl::dropNumbering()
{
    valueScopes.clear();
    // Compiled programs embed the numbering (slot refs resolved
    // against it), so they live and die with it.
    programs.clear();
    shapes.clear();
    programStore.clear();
}

void
Simulator::Impl::releasePools()
{
    // The reset first makes every event, exec and component let go of
    // its environments and of its pointers into the event store.
    reset();
    events = EventStore();
    freeBlockExecs.clear();
    blockExecs.clear();
    freeExecs.clear();
    compiledExecs.clear();
    envPool.clear();
    ffSpare.clear();
}

std::string
Simulator::Impl::freshName(LabelKind kind)
{
    static constexpr const char *kPrefixes[kNumLabelKinds] = {
        "proc", "dma", "mem", "stream", "conn", "comp", "buf"};
    const auto k = static_cast<unsigned>(kind);
    std::string label(kPrefixes[k]);
    char digits[16];
    auto end = std::to_chars(digits, digits + sizeof digits,
                             labelCounters[k]++).ptr;
    label.append(digits, end);
    return label;
}

void
Simulator::Impl::completeEvent(Event *ev, Cycles t)
{
    noteActivity(t);
    ++eventsExecuted;
    // Write the completion word first: every subscription path checks
    // it, so no wakeup can be added from here on and the list can be
    // fired in place (the payload stays put until released below).
    events.markDone(ev, t);
    for (const Wakeup &w : ev->onDone)
        fire(w, t);
    // Every later reader needs only the word, so the payload (with
    // its creator environment, which issue and finishLaunch used
    // before this point) goes back to the pool.
    events.release(ev);
}

void
Simulator::Impl::fire(const Wakeup &w, Cycles t)
{
    switch (w.kind) {
    case Wakeup::Kind::ResumeExec:
        static_cast<CompiledExec *>(w.target)->wake(w.index,
                                                    std::max(w.floor, t));
        return;
    case Wakeup::Kind::ResumeBlock:
        static_cast<BlockExec *>(w.target)->wake(w.index,
                                                 std::max(w.floor, t));
        return;
    case Wakeup::Kind::TryIssue: {
        auto *proc = static_cast<Processor *>(w.target);
        proc->setIssuePending(false);
        tryIssue(proc, t);
        return;
    }
    case Wakeup::Kind::ScheduleIssue:
        requestIssue(static_cast<Processor *>(w.target), t);
        return;
    case Wakeup::Kind::FinishMemcpy: {
        // Completion releases the payload: read the DMA first.
        Event *ev = static_cast<Event *>(w.target);
        Processor *dma = ev->proc;
        completeEvent(ev, t);
        dma->setBusy(false);
        tryIssue(dma, t);
        return;
    }
    case Wakeup::Kind::Complete:
        completeEvent(static_cast<Event *>(w.target), t);
        return;
    case Wakeup::Kind::Join:
        fireJoin(w.index, t);
        return;
    }
}

void
Simulator::Impl::joinUndone(const EventId *ids, size_t n, bool any,
                            Cycles t0, Wakeup then)
{
    uint32_t j;
    if (freeJoins.empty()) {
        j = static_cast<uint32_t>(joins.size());
        joins.emplace_back();
    } else {
        j = freeJoins.back();
        freeJoins.pop_back();
    }
    Join &join = joins[j];
    join.pending = 0;
    join.any = any;
    join.fired = false;
    join.t = t0;
    join.then = then;
    for (size_t i = 0; i < n; ++i) {
        if (EventStore::isDone(events.word(ids[i])))
            continue;
        ++join.pending;
        events.live(ids[i])->onDone.push_back(
            {Wakeup::Kind::Join, j, nullptr, 0});
    }
}

void
Simulator::Impl::fireJoin(uint32_t j, Cycles t)
{
    // Firing may create joins (and so move @ref joins): take what it
    // needs and release the record first.
    Join &join = joins[j];
    bool fires;
    Cycles ft;
    if (join.any) {
        fires = !join.fired;
        join.fired = true;
        ft = t;
    } else {
        join.t = std::max(join.t, t);
        fires = join.pending == 1;
        ft = join.t;
    }
    Wakeup then = join.then;
    if (--join.pending == 0)
        freeJoins.push_back(j);
    if (fires)
        fire(then, ft);
}

void
Simulator::Impl::whenAllDone(const EventId *ids, size_t n, Wakeup w)
{
    size_t undone = 0;
    EventId pending = 0;
    Cycles t0 = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t word = events.word(ids[i]);
        if (EventStore::isDone(word)) {
            t0 = std::max(t0, word);
        } else {
            ++undone;
            pending = ids[i];
        }
    }
    if (undone == 0) {
        fire(w, t0);
    } else if (undone == 1) {
        // The common case (chained launches): subscribe directly, no
        // join record. The wakeup lands where the join's would, and
        // fires at the same time: done events finished no later than
        // the pending one will.
        events.live(pending)->onDone.push_back(w);
    } else {
        joinUndone(ids, n, /*any=*/false, t0, w);
    }
}

void
Simulator::Impl::whenAnyDone(const EventId *ids, size_t n, Wakeup w)
{
    for (size_t i = 0; i < n; ++i) {
        uint64_t word = events.word(ids[i]);
        if (EventStore::isDone(word)) {
            fire(w, word);
            return;
        }
    }
    joinUndone(ids, n, /*any=*/true, 0, w);
}

void
Processor::pushQueue(Event *ev)
{
    if (_queueTail)
        _queueTail->nextQueued = ev;
    else
        _queueHead = ev;
    _queueTail = ev;
}

void
Processor::popQueue()
{
    _queueHead = _queueHead->nextQueued;
    if (!_queueHead)
        _queueTail = nullptr;
}

void
Simulator::Impl::enqueueOnProcessor(Event *ev, Cycles t)
{
    ev->proc->pushQueue(ev);
    requestIssue(ev->proc, t);
}

void
Simulator::Impl::requestIssue(Processor *proc, Cycles t)
{
    if (proc->issuePending())
        return;
    proc->setIssuePending(true);
    scheduleAt(t, {Wakeup::Kind::TryIssue, 0, proc, 0});
}

void
Simulator::Impl::tryIssue(Processor *proc, Cycles t)
{
    if (proc->busy() || proc->queueEmpty())
        return;
    Event *head = proc->queueFront();
    // All dependencies must be complete before the head may issue
    // (head-of-line blocking, as in Fig. 5).
    bool ready = true;
    Cycles dep_time = t;
    for (EventId id : head->deps) {
        uint64_t word = events.word(id);
        if (EventStore::isDone(word))
            dep_time = std::max(dep_time, word);
        else
            ready = false;
    }
    if (!ready) {
        // Subscribe once. The wakeup schedules the next try-issue at
        // the completion time rather than calling it, so the attempt
        // keeps its (t, seq) position.
        if (!head->issueSubscribed) {
            head->issueSubscribed = true;
            whenAllDone(head->deps.data(), head->deps.size(),
                        {Wakeup::Kind::ScheduleIssue, 0, proc, 0});
        }
        return;
    }
    proc->popQueue();
    proc->setBusy(true);
    head->issueSubscribed = false;
    if (head->kind == Event::Kind::Launch)
        issueLaunch(head, dep_time);
    else
        issueMemcpy(head, dep_time);
}

void
Simulator::Impl::issueLaunch(Event *ev, Cycles t)
{
    if (backend == Backend::Compiled) {
        // Pre-compiled issue: the body program and the site's capture
        // mapping (pinned on the event by the Launch micro-op) give the
        // scope size and the captured slots, so no per-issue numbering
        // lookup and no use chain walks — captures are slot-to-slot
        // copies.
        const CompiledBlock &prog = *ev->bodyProg;
        EnvPtr env = envPool.acquire(prog.scopeId, prog.numSlots,
                                     ev->creatorEnv);
        for (uint32_t i = 0; i < ev->numCaptures; ++i) {
            const CompiledBlock::Capture &cap = ev->captures[i];
            Env *e = env->parent.get();
            for (uint32_t h = cap.src.hops; h; --h)
                e = e->parent.get();
            const SimValue &sv = e->slots[cap.src.slot];
            eq_assert(!sv.isNone(),
                      "launch captures value that is not yet computed; "
                      "add an event dependency");
            env->slots[cap.argSlot] = sv;
        }
        acquireExec(ev, ev->proc, prog, std::move(env))->resume(t);
        return;
    }
    equeue::LaunchOp launch(ev->op);
    ir::Block &body = launch.body();
    EnvPtr env = makeEnv(&body, ev->creatorEnv);
    // Resolve captured values now (lazy capture: results of earlier
    // events are published by the time our dependencies are done).
    auto captured = launch.captured();
    for (size_t i = 0; i < captured.size(); ++i) {
        const SimValue *sv = ev->creatorEnv->find(captured[i].impl());
        eq_assert(sv,
                  "launch captures value that is not yet computed; "
                  "add an event dependency");
        env->bind(body.argument(static_cast<unsigned>(i)).impl(), *sv);
    }
    acquireBlockExec(ev, ev->proc, &body, std::move(env))->resume(t);
}

BlockExec *
Simulator::Impl::acquireBlockExec(Event *ev, Processor *proc,
                                  ir::Block *block, EnvPtr env)
{
    BlockExec *x;
    if (freeBlockExecs.empty()) {
        blockExecs.push_back(std::make_unique<BlockExec>(*this));
        x = blockExecs.back().get();
    } else {
        x = freeBlockExecs.back();
        freeBlockExecs.pop_back();
    }
    x->init(ev, proc, block, std::move(env));
    return x;
}

void
Simulator::Impl::finishLaunch(Event *ev, Processor *proc, Cycles t)
{
    // Publish launch results into the creator environment so later
    // consumers (e.g. follow-up launches capturing them) can resolve.
    ir::Operation *op = ev->op;
    for (unsigned i = 1; i < op->numResults(); ++i) {
        eq_assert(ev->results.size() >= op->numResults() - 1,
                  "launch body returned too few values");
        ev->creatorEnv->bind(op->result(i).impl(), ev->results[i - 1]);
    }
    completeEvent(ev, t);
    proc->setBusy(false);
    if (!proc->queueEmpty())
        requestIssue(proc, t);
}

void
Simulator::Impl::issueMemcpy(Event *ev, Cycles t)
{
    BufferObj *src = ev->src;
    BufferObj *dst = ev->dst;
    int64_t words =
        std::min(src->data->numElements(), dst->data->numElements());
    int64_t bytes = words * ((src->data->elemBits + 7) / 8);

    Cycles dur = 1;
    if (src->mem)
        dur = std::max(dur, bulkMemCycles(src->mem, words, false));
    if (dst->mem)
        dur = std::max(dur, bulkMemCycles(dst->mem, words, true));
    Cycles start = t;
    if (ev->conn) {
        Cycles c = ev->conn->transferCycles(bytes);
        dur = std::max(dur, c);
        start = ev->conn->acquireChannel(false, t, dur);
        ev->conn->recordTransfer(false, start, start + dur, bytes);
    }
    // Copy now; data is considered valid once the event completes.
    std::copy_n(src->data->data.begin(), words, dst->data->data.begin());
    if (src->mem)
        src->mem->recordAccess(false, bytes);
    if (dst->mem)
        dst->mem->recordAccess(true, bytes);

    ev->proc->recordBusy(dur);
    ev->proc->recordOp();
    recordTrace("equeue.memcpy", ev->proc, start, dur);
    scheduleAt(start + dur, {Wakeup::Kind::FinishMemcpy, 0, ev, 0});
}

void
Simulator::Impl::notifyStream(StreamFifo *fifo)
{
    auto it = streamWaiters.find(fifo);
    if (it == streamWaiters.end())
        return;
    for (const Wakeup &w : it->second)
        scheduleAt(now, w);
    it->second.clear();
}

bool
Simulator::Impl::capturePending(const CompiledExec *self, Cycles at,
                                std::vector<uint64_t> &state)
{
    state.clear();
    // The exec runs on the engine's clock, no earlier jump is still
    // owed, nothing at or below now can raise the end time (so done
    // words there stay interchangeable; see applyShift), and nothing
    // else is scheduled.
    if (at != now || ffShift != 0 || endTime < now || !heap.empty() ||
        nowHead != nowQ.size())
        return false;
    for (const auto &entry : streamWaiters)
        if (!entry.second.empty())
            return false;
    // Every other exec waits in an await. With the rest of this check
    // passed, what it waits for can complete only after @p self moves
    // on, so it is frozen until then.
    uint64_t running = 0;
    for (const auto &x : compiledExecs) {
        if (!x->running())
            continue;
        if (x.get() != self && !x->awaiting())
            return false;
        ++running;
    }
    state.push_back(running);
    // Completions still firing below this boundary on the stack. Each
    // must be firing its only subscriber (the chain that led here);
    // one launch or memcpy among them may still owe its processor the
    // release (and, if work is queued by then, an issue attempt) at its
    // completion time.
    bool ok = true, owed = false;
    events.forEachInUse([&](const Event &ev, uint64_t word) {
        if (!EventStore::isDone(word))
            return;
        if (ev.onDone.size() > 1)
            ok = false;
        if (ev.kind == Event::Kind::Launch ||
            ev.kind == Event::Kind::Memcpy) {
            ok = ok && !owed;
            owed = true;
            state.push_back(static_cast<uint64_t>(ev.kind));
            state.push_back(reinterpret_cast<uintptr_t>(ev.proc));
            state.push_back(word - now);
        }
    });
    state.push_back(events.livePayloads());
    state.push_back(joins.size() - freeJoins.size());
    state.push_back(endTime - now);
    return ok;
}

bool
Simulator::Impl::captureComponents(std::vector<uint64_t> &state,
                                   std::vector<uint64_t> &counters)
{
    counters.clear();
    counters.push_back(eventsExecuted);
    counters.push_back(opsExecuted);
    counters.push_back(dispatchCount);
    if (!rootProc->captureTiming(now, state, counters))
        return false;
    for (const auto &c : components)
        if (!c->captureTiming(now, state, counters))
            return false;
    return true;
}

bool
Simulator::Impl::fastForward(uint64_t skip, Cycles period,
                             const std::vector<uint64_t> &before,
                             std::vector<uint64_t> &after)
{
    for (size_t i = 0; i < after.size(); ++i)
        after[i] -= before[i];
    Cycles jump;
    if (__builtin_mul_overflow(skip, period, &jump) ||
        jump > ~Cycles(0) - endTime)
        return false;
    // The full run would pass the budget inside the skipped
    // iterations: fail the same way.
    uint64_t ops;
    if (__builtin_mul_overflow(skip, after[1], &ops) ||
        ops > opts.maxOps - opsExecuted)
        opBudgetExceeded();
    eventsExecuted += skip * after[0];
    opsExecuted += ops;
    dispatchCount += skip * after[2];
    const uint64_t *delta = rootProc->addCounters(after.data() + 3, skip);
    for (const auto &c : components)
        delta = c->addCounters(delta, skip);
    ffShift = jump;
    ffIterations += skip;
    return true;
}

void
Simulator::Impl::applyShift()
{
    // Everything after now moves; times at or below it stay, as they
    // are interchangeable with any other such time: done words (every
    // reader takes max(now, word)), queue times, and the floors of
    // awaits and join times in completion lists, which never exceed
    // the clock they were taken at.
    const Cycles by = ffShift;
    ffShift = 0;
    auto move = [&](HeapItem &it) {
        it.t += by;
        if (it.w.floor > now)
            it.w.floor += by;
    };
    for (HeapItem &it : heap)
        move(it);
    for (size_t i = nowHead; i < nowQ.size(); ++i)
        move(nowQ[i]);
    for (Join &j : joins)
        if (j.t > now)
            j.t += by;
    rootProc->shiftTimes(now, by);
    for (const auto &c : components)
        c->shiftTimes(now, by);
    endTime += by;
    now += by;
}

void
Simulator::Impl::runHeap()
{
    // Two sorted sources, one total order: nowQ is FIFO-sorted by
    // (t, seq) by construction (items are appended at the monotone
    // current time with globally increasing sequence numbers), so
    // merging against the heap by the same (t, seq) key pops every
    // item in exactly the order the single-heap schedule would.
    for (;;) {
        // A fast-forward's time jump lands here, on a clean stack: the
        // completion chain that reached the loop boundary has finished
        // scheduling at the times it held.
        if (ffShift)
            applyShift();
        if (heap.empty() && nowHead == nowQ.size())
            break;
        bool from_nowq;
        if (heap.empty()) {
            from_nowq = true;
        } else if (nowHead == nowQ.size()) {
            from_nowq = false;
        } else {
            const HeapItem &a = nowQ[nowHead];
            const HeapItem &b = heap.front();
            from_nowq = std::tie(a.t, a.seq) < std::tie(b.t, b.seq);
        }
        HeapItem item;
        if (from_nowq) {
            item = nowQ[nowHead++];
            if (nowHead == nowQ.size()) {
                nowQ.clear();
                nowHead = 0;
            }
        } else {
            std::pop_heap(heap.begin(), heap.end(), HeapAfter{});
            item = heap.back();
            heap.pop_back();
        }
        eq_assert(item.t >= now, "time went backwards in the scheduler");
        now = item.t;
        fire(item.w, item.t);
    }
}

} // namespace sim
} // namespace eq
