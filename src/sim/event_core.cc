/**
 * @file
 * The engine's event core: discrete-event heap, event lifecycle and
 * dependency subscription, and the per-processor FIFO issue logic of
 * §III-D (launch enqueues an event; the queue head issues once its
 * dependencies complete; each processor executes one event at a time).
 */

#include <algorithm>

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
    blockExecs.clear();
    // Execs still suspended (a run that deadlocked or threw) rejoin
    // the pool too.
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
    eventsExecuted = 0;
    opsExecuted = 0;
    dispatchCount = 0;
    for (auto &kv : nameCounters)
        kv.second = 0;
    if (!keep_numbering)
        dropNumbering();
    traceData.clear();
    rootProc = std::make_unique<Processor>("host", "Root");
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
    // its environments and of its pointers into the slab.
    reset();
    events = EventSlab();
    freeExecs.clear();
    compiledExecs.clear();
    envPool = EnvPool();
}

std::string
Simulator::Impl::freshName(const std::string &base)
{
    int n = nameCounters[base]++;
    return base + std::to_string(n);
}

Event *
Simulator::Impl::newEvent(Event::Kind kind)
{
    Event &ev = events.append();
    ev.kind = kind;
    return &ev;
}

void
Simulator::Impl::completeEvent(Event *ev, Cycles t)
{
    eq_assert(!ev->done, "event completed twice");
    ev->done = true;
    ev->doneTime = t;
    noteActivity(t);
    ++eventsExecuted;
    // Fire the wakeups in place: every subscription path checks done
    // first, so none can be added from here on, and the slab keeps
    // this event (and the list's capacity) where it is.
    for (const Wakeup &w : ev->onDone)
        fire(w, t);
    ev->onDone.clear();
    // The creator environment is only needed up to completion (issue
    // reads captures from it, finishLaunch publishes results into it,
    // both before this point); dropping the reference now lets pooled
    // envs recycle as soon as their launches retire instead of
    // lingering until the end of the run.
    ev->creatorEnv.reset();
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
        static_cast<BlockExec *>(w.target)->resume(std::max(w.floor, t));
        return;
    case Wakeup::Kind::TryIssue:
        tryIssue(static_cast<Processor *>(w.target), t);
        return;
    case Wakeup::Kind::ScheduleIssue:
        scheduleAt(t, {Wakeup::Kind::TryIssue, 0, w.target, 0});
        return;
    case Wakeup::Kind::FinishMemcpy: {
        Event *ev = static_cast<Event *>(w.target);
        completeEvent(ev, t);
        ev->proc->setBusy(false);
        tryIssue(ev->proc, t);
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
        Event *ev = event(ids[i]);
        if (ev->done)
            continue;
        ++join.pending;
        ev->onDone.push_back({Wakeup::Kind::Join, j, nullptr, 0});
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
    Event *pending = nullptr;
    Cycles t0 = 0;
    for (size_t i = 0; i < n; ++i) {
        Event *ev = event(ids[i]);
        if (ev->done) {
            t0 = std::max(t0, ev->doneTime);
        } else {
            ++undone;
            pending = ev;
        }
    }
    if (undone == 0) {
        fire(w, t0);
    } else if (undone == 1) {
        // The common case (chained launches): subscribe directly, no
        // join record. The wakeup lands where the join's would, and
        // fires at the same time: done events finished no later than
        // the pending one will.
        pending->onDone.push_back(w);
    } else {
        joinUndone(ids, n, /*any=*/false, t0, w);
    }
}

void
Simulator::Impl::whenAnyDone(const EventId *ids, size_t n, Wakeup w)
{
    for (size_t i = 0; i < n; ++i) {
        if (event(ids[i])->done) {
            fire(w, event(ids[i])->doneTime);
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
    scheduleAt(t, {Wakeup::Kind::TryIssue, 0, ev->proc, 0});
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
        Event *dep = event(id);
        if (dep->done)
            dep_time = std::max(dep_time, dep->doneTime);
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
    blockExecs.push_back(std::make_unique<BlockExec>(
        *this, ev, ev->proc, &body, std::move(env)));
    blockExecs.back()->resume(t);
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
    scheduleAt(t, {Wakeup::Kind::TryIssue, 0, proc, 0});
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

void
Simulator::Impl::runHeap()
{
    // Two sorted sources, one total order: nowQ is FIFO-sorted by
    // (t, seq) by construction (items are appended at the monotone
    // current time with globally increasing sequence numbers), so
    // merging against the heap by the same (t, seq) key pops every
    // item in exactly the order the single-heap schedule would.
    while (!heap.empty() || nowHead < nowQ.size()) {
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
