/**
 * @file
 * Internal engine declarations shared by the engine's translation
 * units. Not part of the user-facing API (include sim/engine.hh for
 * that). The engine is split into cohesive units:
 *
 *  - event_core.cc: the discrete-event heap, event lifecycle,
 *    dependency subscription, and processor issue queues (§III-D).
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
 * handler by indexing a per-run table with the op's interned OpId (see
 * ir/opid.hh); the compiled backend goes further and pre-lowers the
 * OpId to a dense opcode at compile time. Neither hot path performs
 * string comparisons.
 */

#ifndef EQ_SIM_ENGINE_IMPL_HH
#define EQ_SIM_ENGINE_IMPL_HH

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/inline_function.hh"
#include "base/logging.hh"
#include "sim/compile.hh"
#include "sim/costmodel.hh"
#include "sim/engine.hh"

namespace eq {
namespace sim {

class BlockExec;

/** Scheduled-work callback. Small-buffer-optimized: the engine's
 *  callbacks capture at most a this-pointer and a few counters, so
 *  scheduling a suspended op never allocates (ROADMAP "Event-core
 *  allocation pressure"). */
using SchedFn = InlineFunction<void()>;
/** Event-completion callback (receives the completion time). */
using DoneFn = InlineFunction<void(Cycles)>;

/**
 * Dense value environment for one numbering scope (an interpreted
 * block tree: the module top level or a launch body). Values resolve
 * to slots assigned at region entry (Simulator::Impl::scopeFor);
 * launch bodies chain to their creator's environment so lazily
 * captured and published values resolve across launches.
 */
struct Env {
    uint32_t scopeId = 0;
    std::vector<SimValue> slots;
    std::shared_ptr<Env> parent;

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

using EnvPtr = std::shared_ptr<Env>;

/**
 * A suspended/executing block program, owned by the engine for the
 * duration of a run. Both backends implement this: BlockExec walks the
 * IR, CompiledExec runs a pre-lowered micro-op stream. The event core
 * only ever needs to (re)enter execution at a simulation time.
 */
class ExecBase {
  public:
    virtual ~ExecBase() = default;

    /** (Re-)enter execution at simulation time @p t. */
    virtual void resume(Cycles t) = 0;

    void
    start(Cycles t)
    {
        resume(t);
    }
};

/** A scheduled/executing event (§III-D): launch, memcpy, or control. */
struct Event {
    enum class Kind { Start, And, Or, Launch, Memcpy };

    EventId id = 0;
    Kind kind = Kind::Start;
    std::vector<EventId> deps;

    // Launch / memcpy payload.
    ir::Operation *op = nullptr;
    Processor *proc = nullptr;
    EnvPtr creatorEnv;
    /** Compiled backend: the launch body's pre-lowered program, set by
     *  the Launch micro-op so issue needs no cache lookup. */
    const CompiledBlock *bodyProg = nullptr;
    // Memcpy payload (resolved at creation).
    BufferObj *src = nullptr;
    BufferObj *dst = nullptr;
    Connection *conn = nullptr;

    bool done = false;
    bool issueSubscribed = false;
    Cycles createdAt = 0;
    Cycles startTime = 0;
    Cycles doneTime = 0;
    std::vector<SimValue> results;
    std::vector<DoneFn> onDone;
};

/**
 * Interprets one block (the module top level or a launch body) on a
 * processor. Executes ops in order; 0-cost ops run inline, timed ops
 * suspend via the engine heap; blocking ops (await, stream reads, queue
 * stalls) subscribe to wakeups. Per-op behavior lives in handler member
 * functions dispatched through the engine's OpId-indexed table.
 */
class BlockExec : public ExecBase {
  public:
    BlockExec(Simulator::Impl &eng, Event *ev, Processor *proc,
              ir::Block *block, EnvPtr env)
        : _eng(eng), _event(ev), _proc(proc), _env(std::move(env))
    {
        _frames.push_back(Frame{block, block->begin(), nullptr, 0, {}});
    }

    /** Re-enter interpretation at simulation time @p t. */
    void resume(Cycles t) override;

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
    Event *_event;    ///< null for the module top level
    Processor *_proc; ///< executing processor (root proc at top level)
    EnvPtr _env;
    std::vector<Frame> _frames;
    std::vector<EventId> _spawned;
    bool _finished = false;
};

struct Simulator::Impl {
    EngineOptions opts;
    /** Resolved execution backend (never Backend::Auto). */
    Backend backend = Backend::Compiled;
    Trace traceData;
    OpFunctionRegistry opFns;
    ComponentFactory factory;

    // --- environment pool ---------------------------------------------
    /** Recycled interpretation environments, free-listed by slot count
     *  so a reacquired env's slot vector needs no reallocation. Every
     *  launch issue draws from here instead of allocating (the hottest
     *  allocation site in launch-dense workloads); envs return via
     *  their shared_ptr deleter as soon as the last reference drops —
     *  typically when the launch completes, not at end of run. The
     *  pool deliberately survives reset() so batched re-runs of a
     *  pinned module reach steady state with zero env allocation.
     *  Declared before the per-run state below: member destruction
     *  runs in reverse order, so env deleters fired while events/execs
     *  tear down always find the pool alive (pooled envs hold no
     *  parent refs, so draining the pool itself never re-enters it). */
    std::unordered_map<uint32_t, std::vector<std::unique_ptr<Env>>>
        envFreeList;
    /** Pooled replacement for make_shared<Env>: an env of @p num_slots
     *  cleared slots, chained onto @p parent, returned to the free
     *  list when released. */
    EnvPtr acquireEnv(uint32_t scope_id, uint32_t num_slots,
                      EnvPtr parent);
    /** Deleter target of pooled envs (interp.cc). */
    void recycleEnv(Env *e);

    // --- per-run dispatch state ---------------------------------------
    /** Handler table indexed by OpId::raw(); null = uninterpretable. */
    std::vector<BlockExec::Handler> handlers;
    /** OpId::raw() -> dense compiled opcode (MOp::Bad when the op has
     *  no handler); built alongside @ref handlers, consumed by the
     *  ModuleCompiler. */
    std::vector<MOp> opcodes;
    /** (CostClass, OpId) -> processor occupancy cycles;
     *  CostModel::kDynamic defers to linalgCycles at execution time. */
    std::array<std::vector<Cycles>, kNumCostClasses> costTable;
    /** Ids the interpreter compares against (resolved per run). */
    ir::OpId idAffineFor, idAffineParallel, idAffineStore, idControlAnd,
        idAddComp, idExtractComp, idEqueueAlloc, idExtern, idLaunch,
        idConv, idFill, idMatmul;

    /** Build the dispatch/cost tables for @p ctx (interp.cc). */
    void buildDispatchTable(ir::Context &ctx);

    // --- value numbering ----------------------------------------------
    struct ValueScope {
        uint32_t scopeId;
        uint32_t numSlots;
    };
    /** Numbered interpretation scopes, keyed by root block. */
    std::unordered_map<ir::Block *, ValueScope> valueScopes;
    /** Scope id source; never reset so stale ValueImpl numbering from
     *  earlier runs can never alias a live scope. 0 = "unnumbered". */
    uint32_t nextScopeId = 1;
    /** Context the dispatch/cost tables were built against; batched
     *  runs reuse the tables while this matches the module's context
     *  and no new op names were interned since. */
    ir::Context *dispatchCtx = nullptr;

    /** Slot-number @p root (cached); assigns ValueImpl::interpScope and
     *  interpSlot across the whole inline-interpreted block tree. */
    const ValueScope &scopeFor(ir::Block *root);
    /** Fresh environment for @p root chained onto @p parent. */
    EnvPtr makeEnv(ir::Block *root, EnvPtr parent);

    // --- compiled backend ---------------------------------------------
    /** Compiled (lowered, then fused) micro-op programs, keyed by
     *  scope root block. Cached and invalidated exactly like
     *  @ref valueScopes (the program embeds the scope's slot
     *  assignment): batched re-runs of a pinned module reuse them, a
     *  full reset clears them. */
    std::unordered_map<ir::Block *, std::unique_ptr<CompiledBlock>>
        programs;
    /** Lower and fuse @p root once (cached); see compile.cc. */
    const CompiledBlock &programFor(ir::Block *root);

    // --- per-run simulation state -------------------------------------
    std::vector<std::unique_ptr<Component>> components;
    std::vector<std::unique_ptr<BufferObj>> buffers;
    /** Owned by value in a deque: addresses are push-stable and a new
     *  event costs no separate allocation (events are created per
     *  launch/memcpy/control op — the hottest allocation site in
     *  event-dense workloads). */
    std::deque<Event> events;
    std::vector<std::unique_ptr<ExecBase>> execs;
    std::unordered_map<StreamFifo *, std::vector<SchedFn>> streamWaiters;
    std::unique_ptr<Processor> rootProc;

    /** One pending heap entry. The callback is an SBO functor, and the
     *  heap is a hand-rolled binary heap over a plain vector (rather
     *  than std::priority_queue, whose const top() would force a copy
     *  of the move-only callback on every pop). */
    struct HeapItem {
        Cycles t;
        uint64_t seq;
        SchedFn fn;
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
     *  makes them O(1) deque traffic instead. Items are appended with
     *  t == now and `now` is monotone, so the deque is always sorted
     *  by (t, seq) and runHeap() can merge it against the heap by the
     *  exact same ordering — the total execution order (and therefore
     *  every trace byte) is identical to the single-heap schedule. */
    std::deque<HeapItem> nowQ;
    uint64_t seqCounter = 0;
    Cycles now = 0;
    Cycles endTime = 0;
    uint64_t eventsExecuted = 0;
    uint64_t opsExecuted = 0;
    /** Counted dispatches: how many times the execution loop entered a
     *  counted unit of work. One per interpreted op on the interpreter
     *  (so it equals opsExecuted there); on the compiled backend one
     *  per counted control/linalg/elaboration record and one per
     *  superinstruction group, so it drops below opsExecuted (the
     *  fusion win, surfaced in SimReport::dispatchCount). */
    uint64_t dispatchCount = 0;
    std::unordered_map<std::string, int> nameCounters;

    // --- event core (event_core.cc) -----------------------------------
    /** Clear per-run simulation state. Value numbering survives when
     *  @p keep_numbering is set (batched re-runs of a pinned, unchanged
     *  module); a full reset must clear it because destroyed blocks
     *  from an earlier module could alias new block addresses. */
    void reset(bool keep_numbering = false);
    std::string freshName(const std::string &base);

    void
    scheduleAt(Cycles t, SchedFn fn)
    {
        if (t == now) {
            nowQ.push_back({t, seqCounter++, std::move(fn)});
            return;
        }
        heap.push_back({t, seqCounter++, std::move(fn)});
        std::push_heap(heap.begin(), heap.end(), HeapAfter{});
    }

    /** True when no scheduled work exists at or before @p end: the
     *  gate for every time-advance fast path. A non-empty nowQ always
     *  blocks (its items fire at a time <= now <= end). */
    bool
    nothingPendingBefore(Cycles end) const
    {
        return nowQ.empty() && (heap.empty() || heap.front().t > end);
    }

    void
    noteActivity(Cycles t)
    {
        endTime = std::max(endTime, t);
    }

    Event *newEvent(Event::Kind kind, Cycles t);

    Event *
    event(EventId id)
    {
        eq_assert(id < events.size(), "bad event id");
        return &events[id];
    }

    void completeEvent(Event *ev, Cycles t);

    /** Invoke @p fn(max completion time) once all of @p ids are done. */
    void whenAllDone(const std::vector<EventId> &ids, DoneFn fn);
    /** Invoke @p fn(first completion time) once any of @p ids is done. */
    void whenAnyDone(const std::vector<EventId> &ids, DoneFn fn);

    void enqueueOnProcessor(Event *ev, Cycles t);
    void tryIssue(Processor *proc, Cycles t);
    void issueLaunch(Event *ev, Cycles t);
    void issueMemcpy(Event *ev, Cycles t);
    void notifyStream(StreamFifo *fifo);
    void runHeap();

    /** Launch-body completion shared by both backends: publish the
     *  body's return values into the creator environment, complete the
     *  launch event, free the processor, and poke its issue queue. */
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
     *  add_comp, args[0] is the existing composite). Returns the new
     *  composite for create_comp, None for add_comp. */
    SimValue elabCreateOrAddComp(ir::Operation *op, const SimValue *args,
                                 size_t nargs, bool is_add);
    SimValue elabGetComp(Component *comp, const std::string &child_name);
    /** @p mem is null for memref.alloc (host allocation). */
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

    /** One simulation of @p module (engine.cc). With @p reuse_compiled
     *  the dispatch/cost tables survive when still valid (same context,
     *  no new interned names) and the value numbering survives too —
     *  only safe when the previous run interpreted this same,
     *  still-alive, unmodified module: a fresh module's blocks (or a
     *  fresh context) could alias destroyed ones, so first runs must
     *  pass false and rebuild everything. */
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
        _eng.scheduleAt(end, [this, end] { resume(end); });
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
