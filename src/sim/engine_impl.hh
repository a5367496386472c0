/**
 * @file
 * Internal engine declarations shared by the engine's translation
 * units. Not part of the user-facing API (include sim/engine.hh for
 * that). The engine is split into cohesive units:
 *
 *  - event_core.cc: the discrete-event heap, event lifecycle,
 *    dependency subscription, and processor issue queues (§III-D).
 *    All pending work there is Wakeup records (below), run by one
 *    switch in Simulator::Impl::fire.
 *  - elaborate.cc:  shared elaboration cores for structure ops that
 *    build the modeled hardware (create_proc/dma/mem/comp/..., alloc),
 *    plus the interpreter's thin handler wrappers.
 *  - interp.cc:     block interpretation — dense value-numbered SSA
 *    environments, control flow, and the OpId dispatch table.
 *  - handlers.cc:   per-op handlers for compute, data movement, and
 *    event ops, plus the data-motion cores both backends share.
 *  - compile.cc:    ModuleCompiler — lowers a scope once into a dense
 *    micro-op stream (sim/compile.hh) for the compiled backend.
 *  - compiled_exec.cc: the compiled backend's dispatch loop.
 *  - engine.cc:     the Simulator facade and report generation.
 *
 * Dispatch is table-driven: the interpreter finds every op kind's
 * handler by indexing a per-context table with the op's interned OpId
 * (see ir/opid.hh); the compiled backend goes further and pre-lowers
 * the OpId to a dense opcode at compile time. Neither hot path performs
 * string comparisons. The per-context tables are filled with one
 * lookup per interned name in a table built once per process
 * (lookupOpEntry).
 */

#ifndef EQ_SIM_ENGINE_IMPL_HH
#define EQ_SIM_ENGINE_IMPL_HH

#include <algorithm>
#include <array>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "sim/compile.hh"
#include "sim/costmodel.hh"
#include "sim/engine.hh"

namespace eq {
namespace sim {

class BlockExec;
class CompiledExec;

/**
 * One piece of pending engine work, as plain data. The heap, the
 * same-time queue, event completion lists, join records and stream
 * waiter lists all hold these; Simulator::Impl::fire runs one at time
 * t (its scheduled time, or the completion time of the event it waits
 * on) with a single switch.
 */
struct Wakeup {
    enum class Kind : uint8_t {
        ResumeExec,    ///< resume a CompiledExec at max(floor, t)
        ResumeBlock,   ///< resume a BlockExec at max(floor, t)
        TryIssue,      ///< issue the Processor's queue head if it can
        ScheduleIssue, ///< request a TryIssue of the Processor at t
        FinishMemcpy,  ///< complete the memcpy Event, free and poke its DMA
        Complete,      ///< complete the control_and/or Event
        Join,          ///< one event of join `index` completed
    };
    Kind kind;
    /** ResumeExec: the exec's generation; Join: the join's index. */
    uint32_t index;
    /** The exec, block, processor or event the kind names. */
    void *target;
    /** Resumes only: the earliest resume time (an await's `now`). */
    Cycles floor;
};
static_assert(sizeof(Wakeup) == 24, "a wakeup is three words");

struct Env;
class EnvPool;

/**
 * Intrusive, non-atomic reference to a pooled Env. The engine is
 * single-threaded per Simulator, so a plain counter in the Env replaces
 * shared_ptr's separately allocated, atomically counted control block;
 * when the last reference drops, the env returns to its EnvPool.
 */
class EnvPtr {
  public:
    EnvPtr() = default;
    EnvPtr(std::nullptr_t) {}
    /** Adopt @p e (taking one reference). */
    explicit EnvPtr(Env *e);
    EnvPtr(const EnvPtr &o);
    EnvPtr(EnvPtr &&o) noexcept : _p(o._p) { o._p = nullptr; }
    EnvPtr &
    operator=(EnvPtr o) noexcept
    {
        std::swap(_p, o._p);
        return *this;
    }
    ~EnvPtr() { reset(); }

    Env *get() const { return _p; }
    Env *operator->() const { return _p; }
    void reset();

  private:
    Env *_p = nullptr;
};

/**
 * Dense value environment for one numbering scope (an interpreted
 * block tree: the module top level or a launch body). Values resolve
 * to slots assigned at region entry (Simulator::Impl::scopeFor);
 * launch bodies chain to their creator's environment so lazily
 * captured and published values resolve across launches.
 */
struct Env {
    uint32_t scopeId = 0;
    /** Live EnvPtr references (see EnvPtr). */
    uint32_t refs = 0;
    /** Pool this env returns to when the last reference drops. */
    EnvPool *pool = nullptr;
    std::vector<SimValue> slots;
    EnvPtr parent;
    /** While pooled: the next free env of the same slot count. */
    Env *nextFree = nullptr;

    /** Resolve @p v along the scope chain; null when unbound. */
    const SimValue *
    find(const ir::ValueImpl *v) const
    {
        for (const Env *e = this; e; e = e->parent.get()) {
            if (e->scopeId == v->interpScope) {
                const SimValue &s = e->slots[v->interpSlot];
                return s.isNone() ? nullptr : &s;
            }
        }
        return nullptr;
    }

    /** Bind @p v in whichever chained scope owns it. */
    void
    bind(const ir::ValueImpl *v, SimValue s)
    {
        for (Env *e = this; e; e = e->parent.get()) {
            if (e->scopeId == v->interpScope) {
                e->slots[v->interpSlot] = std::move(s);
                return;
            }
        }
        eq_panic("binding a value outside every active scope");
    }
};

/**
 * Recycled environments, free-listed by slot count so a reacquired
 * env's slot vector never reallocates. Every launch issue draws from
 * here; envs come back as soon as their last reference drops
 * (typically when the launch completes). The pool survives reset(), so
 * re-runs of a pinned module allocate no environments at all.
 *
 * The free lists are one flat array indexed by slot count, each entry
 * the head of a list linked through Env::nextFree: acquiring and
 * recycling are an index and a pointer swap. The pool owns the envs on
 * its lists; an env in use is owned by its references.
 */
class EnvPool {
  public:
    EnvPool() = default;
    EnvPool(const EnvPool &) = delete;
    EnvPool &operator=(const EnvPool &) = delete;
    ~EnvPool() { clear(); }

    /** An env of @p num_slots unbound slots for scope @p scope_id,
     *  chained onto @p parent (interp.cc). */
    EnvPtr acquire(uint32_t scope_id, uint32_t num_slots, EnvPtr parent);
    /** Return @p e, whose last reference just dropped (interp.cc). */
    void recycle(Env *e);
    /** Free every pooled env (interp.cc). */
    void clear();

  private:
    /** Slot count -> first free env of that many slots (or null). */
    std::vector<Env *> _free;
};

inline EnvPtr::EnvPtr(Env *e) : _p(e)
{
    if (_p)
        ++_p->refs;
}

inline EnvPtr::EnvPtr(const EnvPtr &o) : _p(o._p)
{
    if (_p)
        ++_p->refs;
}

inline void
EnvPtr::reset()
{
    if (Env *e = _p) {
        _p = nullptr;
        if (--e->refs == 0)
            e->pool->recycle(e);
    }
}

/// @name Integer arith semantics, shared by both backends
/// addi/subi/muli wrap in two's complement (computed in uint64_t, so
/// overflow is defined). divsi/remsi by zero give 0, and
/// INT64_MIN divsi -1 gives INT64_MIN (remsi 0) instead of trapping.
/// @{
inline int64_t
arithAddI(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

inline int64_t
arithSubI(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

inline int64_t
arithMulI(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

inline int64_t
arithDivSI(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (b == -1)
        return arithSubI(0, a);
    return a / b;
}

inline int64_t
arithRemSI(int64_t a, int64_t b)
{
    return b == 0 || b == -1 ? 0 : a % b;
}
/// @}

/**
 * The heavy part of a live event (§III-D): launch, memcpy or
 * control_and/or. An event needs all of this only until it completes;
 * from then on every reader wants just its completion time, which the
 * event's word in EventStore keeps. A payload therefore returns to the
 * pool at the end of Simulator::Impl::completeEvent, and the pool holds
 * as many payloads as events were ever live at once, however long the
 * run. control_start completes at creation and never takes one.
 */
struct Event {
    enum class Kind { And, Or, Launch, Memcpy };

    EventId id = 0;
    /** This payload's position in the pool (fixed for its lifetime). */
    uint32_t slot = 0;
    Kind kind = Kind::Launch;
    bool issueSubscribed = false;
    std::vector<EventId> deps;

    // Launch / memcpy payload.
    ir::Operation *op = nullptr;
    Processor *proc = nullptr;
    EnvPtr creatorEnv;
    /** Compiled backend: the launch body's pre-lowered program and
     *  the launch site's capture mapping (in the creator's program),
     *  set by the Launch micro-op so issue needs no cache lookup. */
    const CompiledBlock *bodyProg = nullptr;
    const CompiledBlock::Capture *captures = nullptr;
    uint32_t numCaptures = 0;
    // Memcpy payload (resolved at creation).
    BufferObj *src = nullptr;
    BufferObj *dst = nullptr;
    Connection *conn = nullptr;

    /** Next event in @ref proc's issue queue (Processor::pushQueue);
     *  while the payload is free, the next free payload. */
    Event *nextQueued = nullptr;

    std::vector<SimValue> results;
    /** Run at completion, in subscription order. */
    std::vector<Wakeup> onDone;

    /** Back to the default state, keeping the vectors' capacity (and
     *  releasing held envs and tensors). */
    void
    clear()
    {
        deps.clear();
        op = nullptr;
        proc = nullptr;
        creatorEnv.reset();
        bodyProg = nullptr;
        captures = nullptr;
        numCaptures = 0;
        src = dst = nullptr;
        conn = nullptr;
        nextQueued = nullptr;
        issueSubscribed = false;
        results.clear();
        onDone.clear();
    }
};

/**
 * Event storage, split by lifetime. Every EventId owns one 8-byte
 * completion word for the whole run: while the event is live it holds
 * kLive | the slot of its payload, once the event is done its
 * completion time. Payloads (Event) come from a free-listed pool of
 * fixed-size chunks, so their addresses are stable and a released
 * payload keeps its vectors' capacity for the next event. Words live in
 * chunks too, so the store never copies itself as a run grows.
 *
 * A run thus costs 8 bytes per executed event plus one payload per
 * event live at once. clear() is O(payloads ever live at once): it
 * truncates the words and resets the payloads, keeping every chunk, so
 * re-runs of a pinned module create events without allocating.
 */
class EventStore {
  public:
    /** A live event's word: kLive | payload slot. */
    static constexpr uint64_t kLive = uint64_t(1) << 63;

    uint64_t
    word(EventId id) const
    {
        eq_assert(id < _size, "bad event id");
        return _words[id >> kWordShift][id & (kWordChunk - 1)];
    }
    static bool isDone(uint64_t word) { return !(word & kLive); }

    /** A new event with a cleared payload of @p kind. */
    Event *
    create(Event::Kind kind)
    {
        Event *ev = _free;
        if (ev) {
            _free = ev->nextQueued;
            ev->nextQueued = nullptr;
        } else {
            if ((_peak >> kPayloadShift) == _payloads.size())
                _payloads.push_back(std::make_unique<Event[]>(kPayloadChunk));
            ev = &payload(_peak);
            ev->slot = static_cast<uint32_t>(_peak++);
        }
        ++_live;
        ev->kind = kind;
        ev->id = append(kLive | ev->slot);
        return ev;
    }

    /** A new event that is done at @p t (control_start). */
    EventId createDone(Cycles t) { return append(t); }

    /** The payload of live event @p id. */
    Event *
    live(EventId id)
    {
        uint64_t w = word(id);
        eq_assert(!isDone(w), "event ", id, " has completed");
        return &payload(w & ~kLive);
    }

    /** Record that live event @p ev completed at @p t. */
    void
    markDone(Event *ev, Cycles t)
    {
        uint64_t &w = wordRef(ev->id);
        eq_assert(!isDone(w), "event completed twice");
        eq_assert(t < kLive, "completion time out of range");
        w = t;
    }

    /** Return the payload of a completed event to the pool. */
    void
    release(Event *ev)
    {
        ev->clear();
        ev->id = kReleased;
        ev->nextQueued = _free;
        _free = ev;
        --_live;
    }

    /** Payloads in use: after a run, the events that never completed. */
    size_t livePayloads() const { return _live; }
    /** Most payloads in use at once since the last clear(). */
    size_t peakPayloads() const { return _peak; }

    /** Call @p f(event, word) for every payload in use: the live
     *  events, and the completed ones whose completion is still firing
     *  (a done word, the payload not yet released). */
    template <typename F>
    void
    forEachInUse(F &&f) const
    {
        for (size_t s = 0; s < _peak; ++s) {
            const Event &ev =
                _payloads[s >> kPayloadShift][s & (kPayloadChunk - 1)];
            if (ev.id != kReleased)
                f(ev, word(ev.id));
        }
    }

    /** The live events (payloads in use, not done), in event order. */
    std::vector<const Event *>
    liveEvents() const
    {
        std::vector<const Event *> out;
        forEachInUse([&](const Event &ev, uint64_t w) {
            if (!isDone(w))
                out.push_back(&ev);
        });
        std::sort(out.begin(), out.end(),
                  [](const Event *a, const Event *b) { return a->id < b->id; });
        return out;
    }

    /** Drop every event, keeping the storage. */
    void
    clear()
    {
        for (size_t s = 0; s < _peak; ++s)
            payload(s).clear();
        _free = nullptr;
        _peak = _live = _size = 0;
    }

  private:
    /** The id of a payload on the free list. */
    static constexpr EventId kReleased = ~EventId(0);
    static constexpr unsigned kWordShift = 12;
    static constexpr size_t kWordChunk = size_t(1) << kWordShift;
    static constexpr unsigned kPayloadShift = 6;
    static constexpr size_t kPayloadChunk = size_t(1) << kPayloadShift;

    uint64_t &
    wordRef(EventId id)
    {
        return _words[id >> kWordShift][id & (kWordChunk - 1)];
    }

    Event &
    payload(size_t slot)
    {
        return _payloads[slot >> kPayloadShift][slot & (kPayloadChunk - 1)];
    }

    EventId
    append(uint64_t w)
    {
        if ((_size >> kWordShift) == _words.size())
            _words.push_back(std::make_unique<uint64_t[]>(kWordChunk));
        EventId id = _size++;
        wordRef(id) = w;
        return id;
    }

    std::vector<std::unique_ptr<uint64_t[]>> _words;
    std::vector<std::unique_ptr<Event[]>> _payloads;
    /** Free payloads, linked through Event::nextQueued. */
    Event *_free = nullptr;
    /** Events created this run: ids are 0.._size-1. */
    size_t _size = 0;
    /** Payloads handed out at least once since clear(): slots
     *  0.._peak-1. A payload is drawn fresh only when none is free, so
     *  this is the most ever live at once. */
    size_t _peak = 0;
    /** Payloads handed out and not yet released. */
    size_t _live = 0;
};

/**
 * The events an exec launched, for its await-all. Done ids are dead
 * weight there (a done event finished no later than `now`), so the list
 * drops them whenever it doubles since its last compaction: it stays
 * proportional to the exec's pending launches, not to every launch of
 * the run.
 */
class SpawnList {
  public:
    void
    push(EventId id, const EventStore &events)
    {
        if (_ids.size() >= _limit)
            compact(events);
        _ids.push_back(id);
    }

    /** Keep only the pending ids (in order); returns how many. */
    size_t
    compact(const EventStore &events)
    {
        size_t w = 0;
        for (EventId id : _ids)
            if (!EventStore::isDone(events.word(id)))
                _ids[w++] = id;
        _ids.resize(w);
        _limit = std::max(kMinLimit, 2 * w);
        return w;
    }

    const EventId *data() const { return _ids.data(); }

    void
    clear()
    {
        _ids.clear();
        _limit = kMinLimit;
    }

  private:
    static constexpr size_t kMinLimit = 64;
    std::vector<EventId> _ids;
    size_t _limit = kMinLimit;
};

/**
 * Interprets one block (the module top level or a launch body) on a
 * processor. Executes ops in order; 0-cost ops run inline, timed ops
 * suspend via the engine heap; blocking ops (await, stream reads, queue
 * stalls) subscribe to wakeups. Per-op behavior lives in handler member
 * functions dispatched through the engine's OpId-indexed table.
 *
 * Execs are pooled like CompiledExecs (Simulator::Impl::acquireBlockExec):
 * init() binds an idle exec to a new launch, finish() returns it to the
 * free list, and every wakeup carries the generation it was scheduled
 * under.
 */
class BlockExec {
  public:
    explicit BlockExec(Simulator::Impl &eng) : _eng(eng) {}

    /** Bind this (idle) exec to interpret @p block for launch @p ev
     *  (null: the module top level) on @p proc in @p env. */
    void
    init(Event *ev, Processor *proc, ir::Block *block, EnvPtr env)
    {
        _event = ev;
        _proc = proc;
        _env = std::move(env);
        _frames.clear();
        _frames.push_back(Frame{block, block->begin(), nullptr, 0, {}});
        _spawned.clear();
        _finished = false;
        ++_gen;
    }

    /** Go idle: drop the environment (which would otherwise keep
     *  tensors alive), keeping the vectors' capacity. */
    void
    release()
    {
        _env.reset();
        _frames.clear();
        _finished = true;
    }

    /** (Re-)enter interpretation at simulation time @p t. */
    void resume(Cycles t);
    /** Scheduled re-entry: @p gen is the generation the wakeup was
     *  scheduled under. */
    void
    wake(uint32_t gen, Cycles t)
    {
        eq_assert(gen == _gen, "resuming a recycled block exec");
        resume(t);
    }
    /** Resumes this block at max(@p floor, fire time). */
    Wakeup
    wakeup(Cycles floor = 0)
    {
        return {Wakeup::Kind::ResumeBlock, _gen, this, floor};
    }

    enum class Step { Continue, Suspend, Finished };
    /** Handler for one op kind; the dispatch table stores these. */
    using Handler = Step (BlockExec::*)(ir::Operation *, Cycles &);

    /// @name Op handlers (elaborate.cc)
    /// @{
    Step execCreateProc(ir::Operation *op, Cycles &now);
    Step execCreateDma(ir::Operation *op, Cycles &now);
    Step execCreateMem(ir::Operation *op, Cycles &now);
    Step execCreateStream(ir::Operation *op, Cycles &now);
    Step execCreateConnection(ir::Operation *op, Cycles &now);
    Step execCreateOrAddComp(ir::Operation *op, Cycles &now);
    Step execGetComp(ir::Operation *op, Cycles &now);
    Step execAlloc(ir::Operation *op, Cycles &now);
    Step execDealloc(ir::Operation *op, Cycles &now);
    /// @}

    /// @name Op handlers (interp.cc: control flow)
    /// @{
    Step execAffineFor(ir::Operation *op, Cycles &now);
    Step execAffineParallel(ir::Operation *op, Cycles &now);
    Step execAffineYield(ir::Operation *op, Cycles &now);
    Step execNestedModule(ir::Operation *op, Cycles &now);
    /// @}

    /// @name Op handlers (handlers.cc: compute, data motion, events)
    /// @{
    Step execArithConstant(ir::Operation *op, Cycles &now);
    Step execAddI(ir::Operation *op, Cycles &now);
    Step execSubI(ir::Operation *op, Cycles &now);
    Step execMulI(ir::Operation *op, Cycles &now);
    Step execDivSI(ir::Operation *op, Cycles &now);
    Step execRemSI(ir::Operation *op, Cycles &now);
    Step execAddF(ir::Operation *op, Cycles &now);
    Step execMulF(ir::Operation *op, Cycles &now);
    Step execArithUnsupported(ir::Operation *op, Cycles &now);
    Step execAffineLoadStore(ir::Operation *op, Cycles &now);
    Step execLinalg(ir::Operation *op, Cycles &now);
    Step execRead(ir::Operation *op, Cycles &now);
    Step execWrite(ir::Operation *op, Cycles &now);
    Step execStreamRead(ir::Operation *op, Cycles &now);
    Step execStreamWrite(ir::Operation *op, Cycles &now);
    Step execControlStart(ir::Operation *op, Cycles &now);
    Step execControlAndOr(ir::Operation *op, Cycles &now);
    Step execLaunch(ir::Operation *op, Cycles &now);
    Step execMemcpy(ir::Operation *op, Cycles &now);
    Step execAwait(ir::Operation *op, Cycles &now);
    Step execReturn(ir::Operation *op, Cycles &now);
    Step execExtern(ir::Operation *op, Cycles &now);
    /// @}

  private:
    friend struct Simulator::Impl;

    struct Frame {
        ir::Block *block;
        ir::Block::iterator it;
        ir::Operation *loop; ///< owning affine.for/parallel, if any
        int64_t iv;          ///< affine.for induction value
        std::vector<int64_t> ivs; ///< affine.parallel induction values
    };

    Step dispatch(ir::Operation *op, Cycles &now);
    Step handleLoopEnd(Cycles &now);
    void finish(Cycles t);

    // Inline hot helpers (defined below, after Simulator::Impl).
    SimValue eval(ir::Value v) const;
    void bind(ir::Value v, SimValue s);
    Step advanceAfter(ir::Operation *op, Cycles &now, Cycles start,
                      Cycles cycles);
    Cycles opCost(ir::Operation *op) const;
    std::string traceLabel(ir::Operation *op) const;

    /** Advance the instruction pointer past a 0-cost op. */
    Step
    advanceFree()
    {
        ++_frames.back().it;
        return Step::Continue;
    }

    Simulator::Impl &_eng;
    Event *_event = nullptr; ///< null for the module top level
    /** Executing processor (the root processor at the top level). */
    Processor *_proc = nullptr;
    EnvPtr _env;
    std::vector<Frame> _frames;
    SpawnList _spawned;
    bool _finished = true;
    /** Bumped by every init(); stale wakeups fail an assertion. */
    uint32_t _gen = 0;
};

/** What the engine executes for one op kind: its interpreter handler
 *  (null: uninterpretable), its compiled opcode and its static cost on
 *  each processor class (CostModel::kDynamic: shape-dependent). */
struct OpEntry {
    BlockExec::Handler handler = nullptr;
    MOp mop = MOp::Bad;
    std::array<Cycles, kNumCostClasses> cost{};
};

/** The entry for op name @p name worked out from the name: the
 *  engine's handler list, the dialect-prefix fallbacks and
 *  CostModel::staticOpCycles (interp.cc). */
OpEntry computeOpEntry(std::string_view name);

/** The entry for @p name from a table built once per process (thread
 *  safe) over every registered op name; any other name, such as an
 *  unregistered op, is worked out by computeOpEntry. */
OpEntry lookupOpEntry(std::string_view name);

struct Simulator::Impl {
    EngineOptions opts;
    /** Resolved execution backend (never Backend::Auto). */
    Backend backend = Backend::Compiled;
    Trace traceData;
    OpFunctionRegistry opFns;
    ComponentFactory factory;

    // --- reused engine state -----------------------------------------
    // Every allocation the engine makes per launch, event or op has a
    // home here (or further down: the event store, the queues, the join
    // records, the compiled-exec pool, the buffers) that survives
    // reset(), so re-runs of a pinned module reach a steady state that
    // never calls malloc. The env pool is declared first: members are
    // destroyed in reverse order, so envs released while the events and
    // execs below tear down always find it alive.
    EnvPool envPool;

    // --- per-context dispatch state -----------------------------------
    /** Handler table indexed by OpId::raw(); null = uninterpretable. */
    std::vector<BlockExec::Handler> handlers;
    /** OpId::raw() -> dense compiled opcode (MOp::Bad when the op has
     *  no handler); built alongside @ref handlers, consumed by the
     *  ModuleCompiler. */
    std::vector<MOp> opcodes;
    /** (CostClass, OpId) -> processor occupancy cycles;
     *  CostModel::kDynamic defers to linalgCycles at execution time. */
    std::array<std::vector<Cycles>, kNumCostClasses> costTable;
    /** Ids the interpreter compares against (resolved per context). */
    ir::OpId idAffineFor, idAffineParallel, idAffineStore, idControlAnd,
        idAddComp, idExtractComp, idEqueueAlloc, idExtern, idLaunch,
        idConv, idFill, idMatmul;

    /** Context::serial() of the context the tables above were built
     *  for (0: none yet). A serial is never reused, so a new context at
     *  a destroyed one's address still gets fresh tables. */
    uint64_t dispatchSerial = 0;

    /** Make the dispatch/cost tables cover @p ctx, filling them from
     *  lookupOpEntry unless they already do (interp.cc). */
    void prepareDispatchTables(ir::Context &ctx);

    // --- value numbering ----------------------------------------------
    struct ValueScope {
        uint32_t scopeId;
        uint32_t numSlots;
        /** Ops, operands and blocks of the scope's inline tree (sizes
         *  the compiler's record and operand pools). */
        uint32_t numOps;
        uint32_t numOperands;
        uint32_t numBlocks;
    };
    /** Numbered interpretation scopes, keyed by root block. */
    std::unordered_map<ir::Block *, ValueScope> valueScopes;
    /** Scope id source; never reset so stale ValueImpl numbering from
     *  earlier runs can never alias a live scope. 0 = "unnumbered". */
    uint32_t nextScopeId = 1;

    /** Slot-number @p root (cached); assigns ValueImpl::interpScope and
     *  interpSlot across the whole inline-interpreted block tree. */
    const ValueScope &scopeFor(ir::Block *root);
    /** Fresh environment for @p root chained onto @p parent. */
    EnvPtr makeEnv(ir::Block *root, EnvPtr parent);

    // --- compiled backend ---------------------------------------------
    /** Every compiled micro-op program: the
     *  module top level and one per distinct launch-body shape. Cached
     *  and invalidated exactly like @ref valueScopes (a program embeds
     *  its first instance's slot assignment): batched re-runs of a
     *  pinned module reuse them, a full reset clears them. */
    std::vector<std::unique_ptr<CompiledBlock>> programStore;
    /** Scope root block -> its program; launch bodies of one shape
     *  share theirs. */
    std::unordered_map<ir::Block *, const CompiledBlock *> programs;
    /** A launch-body shape: the structural tokens of its first
     *  instance (compile.cc) and the program compiled from it. */
    struct Shape {
        std::vector<uint64_t> tokens;
        const CompiledBlock *prog;
    };
    /** Launch-body shapes by token hash; a hit is confirmed by a full
     *  comparison. */
    std::unordered_multimap<uint64_t, Shape> shapes;
    /** Token buffer for the body being looked up (reused). */
    std::vector<uint64_t> shapeScratch;
    /** Lower @p root once (cached); a launch body whose shape
     *  was compiled before shares that program (compile.cc). */
    const CompiledBlock &programFor(ir::Block *root);

    // --- per-run simulation state -------------------------------------
    std::vector<std::unique_ptr<Component>> components;
    /** Buffers by allocation order. A reset keeps the previous run's
     *  (of this or any earlier module), and elabAlloc reuses the one
     *  at its position (zero-filled) when shape and width match and
     *  nothing outside holds its tensor. */
    std::vector<std::unique_ptr<BufferObj>> buffers;
    /** Buffers allocated so far in this run (a prefix of @ref buffers). */
    size_t numBuffers = 0;
    EventStore events;
    /** Every BlockExec this engine has made, pooled like
     *  @ref compiledExecs: one returns to @ref freeBlockExecs when its
     *  block finishes, so the pool's size is the number of execs live
     *  at once, not the number of launches. */
    std::vector<std::unique_ptr<BlockExec>> blockExecs;
    std::vector<BlockExec *> freeBlockExecs;
    /** A pooled exec interpreting @p block for launch @p ev (null: the
     *  module top level) on @p proc in @p env (event_core.cc). */
    BlockExec *acquireBlockExec(Event *ev, Processor *proc,
                                ir::Block *block, EnvPtr env);
    /** Every CompiledExec this engine has made. An exec returns to
     *  @ref freeExecs when its program finishes, so the pool's size is
     *  the number of execs live at once; reset() returns the rest. */
    std::vector<std::unique_ptr<CompiledExec>> compiledExecs;
    std::vector<CompiledExec *> freeExecs;
    /** A pooled exec running @p prog for launch @p ev (null: the
     *  module top level) on @p proc in @p env (compiled_exec.cc). */
    CompiledExec *acquireExec(Event *ev, Processor *proc,
                              const CompiledBlock &prog, EnvPtr env);
    /** Readers blocked on each FIFO, woken by its next push. */
    std::unordered_map<StreamFifo *, std::vector<Wakeup>> streamWaiters;
    std::unique_ptr<Processor> rootProc;

    /** One pending heap entry: a wakeup, fired at @ref t. The heap is
     *  a binary heap over a plain vector, so runHeap() can merge its
     *  front against @ref nowQ. */
    struct HeapItem {
        Cycles t;
        uint64_t seq;
        Wakeup w;
    };
    /** Min-ordering on (time, sequence) for push_heap/pop_heap. */
    struct HeapAfter {
        bool
        operator()(const HeapItem &a, const HeapItem &b) const
        {
            return std::tie(a.t, a.seq) > std::tie(b.t, b.seq);
        }
    };
    std::vector<HeapItem> heap;
    /** Same-time FIFO: work scheduled for the current cycle. Launch
     *  issue, launch completion re-issue, and stream notification all
     *  schedule at `now`, so the common launch-issue round-trip was a
     *  heap push + pop at an unchanged time; routing those items here
     *  makes them O(1) queue traffic instead. Items are appended with
     *  t == now and `now` is monotone, so the queue is always sorted
     *  by (t, seq) and runHeap() can merge it against the heap by the
     *  exact same ordering — the total execution order (and therefore
     *  every trace byte) is identical to the single-heap schedule.
     *  A vector read from @ref nowHead; it is emptied (keeping its
     *  capacity) whenever the head catches up, which happens before
     *  every time advance. */
    std::vector<HeapItem> nowQ;
    size_t nowHead = 0;
    uint64_t seqCounter = 0;
    Cycles now = 0;
    Cycles endTime = 0;

    // --- exact loop fast-forward --------------------------------------
    // A loop marked kFlagFastForward (compile.cc) whose timing state at
    // two consecutive iteration boundaries is equal repeats that
    // iteration's effect until it ends: CompiledExec::boundary adds the
    // remaining iterations' counter deltas at once and runs only the
    // last one, and runHeap moves the clock and every pending time by
    // the skipped iterations' span.
    /** Fast-forward may engage in this run: compiled backend, no trace,
     *  a module whose data never reaches timing (CompiledBlock::ffClean),
     *  the built-in externs and memory kinds. */
    bool ffEnabled = false;
    /** Time jump owed by a fast-forward, applied by runHeap. */
    Cycles ffShift = 0;
    /** Loop iterations skipped in this run. */
    uint64_t ffIterations = 0;
    /** Capture scratch, swapped with the loops' saved boundaries. */
    std::vector<uint64_t> ffState, ffCounters;
    /** Capture buffers no running loop holds. A loop entry borrows two
     *  for its saved boundary and gives them back when the loop ends,
     *  so what the engine keeps follows the marked loops running at
     *  once, not the execs ever pooled. */
    std::vector<std::vector<uint64_t>> ffSpare;
    /** Give @p buf a spare buffer's capacity, if it has none. */
    void
    ffLend(std::vector<uint64_t> &buf)
    {
        if (buf.capacity() == 0 && !ffSpare.empty()) {
            buf.swap(ffSpare.back());
            ffSpare.pop_back();
        }
    }
    /** Take back @p buf's capacity, leaving it empty. */
    void
    ffGive(std::vector<uint64_t> &buf)
    {
        if (buf.capacity() != 0) {
            ffSpare.emplace_back();
            ffSpare.back().swap(buf);
        }
    }
    /** The canonical pending-work part of the run's timing state at a
     *  loop boundary of @p self (clock @p at), appended to @p state:
     *  the execs blocked in awaits and the completion still firing
     *  below the boundary, relative to now. False when anything but
     *  @p self could still act before it: any scheduled work, a stream
     *  waiter, an exec not blocked in an await, a completion owing more
     *  than one wakeup or processor release (event_core.cc). */
    bool capturePending(const CompiledExec *self, Cycles at,
                        std::vector<uint64_t> &state);
    /** The rest of the timing state (every component's, relative to
     *  now) appended to @p state, and the counter totals to
     *  @p counters. False when a processor holds queued events. */
    bool captureComponents(std::vector<uint64_t> &state,
                           std::vector<uint64_t> &counters);
    /** Account @p skip more iterations of @p period cycles each whose
     *  counters went from @p before to @p after per iteration, and owe
     *  runHeap the time jump. Throws the op budget's SimError when the
     *  skipped iterations would exceed it; false (nothing changed) when
     *  the jump would overflow the clock. @p after is scratch. */
    bool fastForward(uint64_t skip, Cycles period,
                     const std::vector<uint64_t> &before,
                     std::vector<uint64_t> &after);
    /** Move the clock, the end time and every pending time after it
     *  by ffShift (event_core.cc). */
    void applyShift();
    uint64_t eventsExecuted = 0;
    uint64_t opsExecuted = 0;
    /** Counted dispatches: how many times the execution loop entered a
     *  counted unit of work. One per interpreted op on the interpreter
     *  (so it equals opsExecuted there); on the compiled backend one
     *  per counted control/linalg/elaboration record and one per
     *  superinstruction group, so it drops below opsExecuted (the
     *  fusion win, surfaced in SimReport::dispatchCount). */
    uint64_t dispatchCount = 0;
    /** The kinds of run objects that carry a label; each kind numbers
     *  its labels from 0 in every run ("proc0", "proc1", "buf0", ...). */
    enum class LabelKind : uint8_t { Proc, Dma, Mem, Stream, Conn, Comp, Buf };
    static constexpr unsigned kNumLabelKinds = 7;
    std::array<uint32_t, kNumLabelKinds> labelCounters{};

    /** Count one executed op against the run's op budget
     *  (EngineOptions::maxOps). */
    void
    countOp()
    {
        if (++opsExecuted > opts.maxOps)
            opBudgetExceeded();
    }
    /** Throw the SimError for an exhausted op budget (event_core.cc). */
    [[noreturn, gnu::cold]] void opBudgetExceeded() const;
    /** Throw the deadlock SimError for a run that ran out of work with
     *  events still live, naming them and the streams read-blocked
     *  (event_core.cc). */
    [[noreturn, gnu::cold]] void deadlocked();

    // --- event core (event_core.cc) -----------------------------------
    /** Clear per-run simulation state. Value numbering survives when
     *  @p keep_numbering is set (batched re-runs of a pinned, unchanged
     *  module); a full reset must clear it because destroyed blocks
     *  from an earlier module could alias new block addresses. */
    void reset(bool keep_numbering = false);
    /** Forget the value numbering and every program compiled against
     *  it. */
    void dropNumbering();
    /** Full reset, then free the event store, the exec pool and the env
     *  pool, which otherwise keep the size of the largest run so far
     *  (Session::releasePools). */
    void releasePools();
    /** The next label of @p kind in this run (event_core.cc). */
    std::string freshName(LabelKind kind);

    void
    scheduleAt(Cycles t, Wakeup w)
    {
        if (t == now) {
            nowQ.push_back({t, seqCounter++, w});
            return;
        }
        heap.push_back({t, seqCounter++, w});
        std::push_heap(heap.begin(), heap.end(), HeapAfter{});
    }

    /** True when no scheduled work exists at or before @p end: the
     *  gate for every time-advance fast path. A non-empty nowQ always
     *  blocks (its items fire at a time <= now <= end). */
    bool
    nothingPendingBefore(Cycles end) const
    {
        return nowHead == nowQ.size() &&
               (heap.empty() || heap.front().t > end);
    }

    void
    noteActivity(Cycles t)
    {
        endTime = std::max(endTime, t);
    }

    /** A control_start: an event done at @p t, so it needs no
     *  payload. */
    EventId
    startEvent(Cycles t)
    {
        noteActivity(t);
        ++eventsExecuted;
        return events.createDone(t);
    }

    /** Run @p w at time @p t: the one dispatch point of every wakeup
     *  kind. */
    void fire(const Wakeup &w, Cycles t);

    /** A pending join over several events (whenAllDone/whenAnyDone):
     *  @ref pending subscriptions are outstanding; an all-join fires
     *  @ref then with the latest completion time when the last one
     *  lands, an any-join with the first completion time. Pooled in
     *  @ref joins and addressed by index, so subscribing costs no
     *  allocation. */
    struct Join {
        uint32_t pending = 0;
        bool any = false;
        bool fired = false;
        Cycles t = 0;
        Wakeup then{};
    };
    std::vector<Join> joins;
    std::vector<uint32_t> freeJoins;
    /** Subscribe a fresh join to every not-yet-done event of @p ids. */
    void joinUndone(const EventId *ids, size_t n, bool any, Cycles t0,
                    Wakeup then);
    /** One subscribed event of join @p j completed at @p t. */
    void fireJoin(uint32_t j, Cycles t);

    void completeEvent(Event *ev, Cycles t);

    /** Fire @p w at the max completion time once all of the @p n
     *  events @p ids are done. */
    void whenAllDone(const EventId *ids, size_t n, Wakeup w);
    /** Fire @p w at the first completion time once any of them is
     *  done. */
    void whenAnyDone(const EventId *ids, size_t n, Wakeup w);
    /** Scratch id list for awaits and control joins: filled and handed
     *  to whenAllDone/whenAnyDone, which read it before any wakeup
     *  can fire. */
    std::vector<EventId> idScratch;

    void enqueueOnProcessor(Event *ev, Cycles t);
    /** Schedule an issue attempt of @p proc at @p t, unless one is
     *  pending already (the TryIssue wakeup clears the flag). */
    void requestIssue(Processor *proc, Cycles t);
    void tryIssue(Processor *proc, Cycles t);
    void issueLaunch(Event *ev, Cycles t);
    void issueMemcpy(Event *ev, Cycles t);
    void notifyStream(StreamFifo *fifo);
    void runHeap();

    /** Launch-body completion shared by both backends: publish the
     *  body's return values into the creator environment, complete the
     *  launch event, free the processor, and request an issue attempt
     *  if its queue holds events. */
    void finishLaunch(Event *ev, Processor *proc, Cycles t);

    // --- elaboration cores (elaborate.cc) -----------------------------
    // Structure-op semantics shared by both backends; the executors
    // evaluate operands their own way, bind the returned value, and
    // advance for free (§III-A: structure ops describe hardware, they
    // do not execute on it).
    SimValue elabCreateProc(ir::Operation *op);
    SimValue elabCreateDma();
    SimValue elabCreateMem(ir::Operation *op);
    SimValue elabCreateStream(ir::Operation *op);
    SimValue elabCreateConnection(ir::Operation *op);
    /** create_comp / add_comp; @p args are the evaluated operands (for
     *  add_comp, args[0] is the existing composite) and @p names the
     *  parsed `names` attribute, one per subcomponent operand. Returns
     *  the new composite for create_comp, None for add_comp. */
    SimValue elabCreateOrAddComp(const SimValue *args, size_t nargs,
                                 bool is_add, const std::string *names);
    SimValue elabGetComp(Component *comp, const std::string &child_name);
    /** @p mem is null for memref.alloc (host allocation). Reuses the
     *  previous run's buffer at the same position (see @ref buffers). */
    SimValue elabAlloc(ir::Operation *op, Memory *mem);

    // --- data-motion cores (handlers.cc) ------------------------------
    /** The mem-acquire + connection-acquire sequence shared by
     *  equeue.read/write and affine.load/store: reserves a memory bank
     *  and (optionally) a link channel, records traffic, and returns
     *  the cycle the access starts issuing. */
    Cycles bufferAccessStart(BufferObj *buf, Connection *conn,
                             bool is_write, int64_t words, int64_t bytes,
                             Cycles now);
    /** Push @p elems into @p fifo through optional @p conn; elements
     *  become visible at the connection-shaped arrival time. */
    void streamPush(StreamFifo *fifo, Connection *conn,
                    const std::vector<int64_t> &elems, Cycles now);

    // --- linalg functional semantics (handlers.cc) --------------------
    void linalgConvCompute(ir::Operation *op, BufferObj *ib,
                           BufferObj *wb, BufferObj *ob);
    void linalgFillCompute(ir::Operation *op, BufferObj *b);
    void linalgMatmulCompute(BufferObj *a, BufferObj *bm, BufferObj *c);

    // --- cost & trace -------------------------------------------------
    /** Table-driven per-op cost; no strings on this path. */
    Cycles
    opCost(Processor *proc, ir::Operation *op) const
    {
        unsigned cls = proc ? static_cast<unsigned>(proc->costClass())
                            : static_cast<unsigned>(CostClass::Root);
        Cycles c = costTable[cls][op->opId().raw()];
        if (c == CostModel::kDynamic)
            c = CostModel::linalgCycles(op);
        return c;
    }

    void
    recordTrace(const std::string &op_name, Processor *proc, Cycles start,
                Cycles dur, const char *cat = "operation")
    {
        if (!traceData.enabled())
            return;
        TraceEvent e;
        e.name = op_name;
        e.cat = cat;
        e.pid = proc->parent() ? proc->parent()->path() : "top";
        e.tid = proc->name();
        e.ts = start;
        e.dur = dur;
        traceData.record(e);
    }

    /** Bulk-transfer occupancy of a memory: words striped over banks. */
    static Cycles
    bulkMemCycles(Memory *mem, int64_t words, bool is_write)
    {
        Cycles per = mem->getReadOrWriteCycles(is_write, words);
        unsigned banks = std::max(1u, mem->numQueues());
        return (per + banks - 1) / banks;
    }

    SimReport buildReport(double wall_seconds) const;

    /** One simulation of @p module (engine.cc). The dispatch/cost
     *  tables survive while still valid (same context, no new interned
     *  names). With @p reuse_compiled the value numbering and programs
     *  survive too — only safe when the previous run interpreted this
     *  same, still-alive, unmodified module: a fresh module's blocks
     *  could alias destroyed ones, so first runs must pass false. */
    SimReport runModule(ir::Operation *module, bool reuse_compiled);
};

// ---------------------------------------------------------------------------
// BlockExec inline hot helpers (need the complete Impl)

inline SimValue
BlockExec::eval(ir::Value v) const
{
    const SimValue *s = _env->find(v.impl());
    eq_assert(s, "use of value with no runtime binding (op '",
              v.definingOp() ? v.definingOp()->name() : "blockarg",
              "'): likely a missing event dependency");
    return *s;
}

inline void
BlockExec::bind(ir::Value v, SimValue s)
{
    _env->bind(v.impl(), std::move(s));
}

inline Cycles
BlockExec::opCost(ir::Operation *op) const
{
    return _eng.opCost(_proc, op);
}

/**
 * Account for an op that occupies the processor from @p start for
 * @p cycles. Advances the instruction pointer; suspends when the op
 * ends later than @p now *and* another event is pending first. When
 * this block's wake-up would be the very next heap pop anyway (every
 * pending item is strictly later, and ties at `end` run older-first),
 * time advances in place and interpretation continues without the
 * scheduler round-trip — the same fast path the compiled backend's
 * chargeAfter takes (ROADMAP "Interpreter time-advance fast path").
 * Relative ordering of all other heap items is untouched, so traces
 * stay byte-identical.
 */
inline BlockExec::Step
BlockExec::advanceAfter(ir::Operation *op, Cycles &now, Cycles start,
                        Cycles cycles)
{
    Cycles end = start + cycles;
    if (_proc) {
        _proc->recordBusy(cycles);
        _proc->recordOp();
        if (_eng.traceData.enabled()) {
            if (start > now)
                _eng.recordTrace("stall", _proc, now, start - now,
                                 "stall");
            if (cycles > 0)
                _eng.recordTrace(traceLabel(op), _proc, start, cycles);
        }
    }
    _eng.noteActivity(end);
    ++_frames.back().it;
    if (end > now) {
        if (_eng.nothingPendingBefore(end)) {
            _eng.now = end;
            now = end;
            return Step::Continue;
        }
        _eng.scheduleAt(end, wakeup());
        return Step::Suspend;
    }
    return Step::Continue;
}

inline std::string
BlockExec::traceLabel(ir::Operation *op) const
{
    if (op->opId() == _eng.idExtern)
        return op->strAttr("signature");
    return op->name();
}

} // namespace sim
} // namespace eq

#endif // EQ_SIM_ENGINE_IMPL_HH
