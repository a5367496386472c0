/**
 * @file
 * CompiledExec: the compiled backend's execution loop. Runs one
 * pre-lowered micro-op stream (sim/compile.hh) for one interpretation
 * scope — the module top level or a launch body — against the same
 * event core, components, and environments as the interpreter.
 *
 * Where BlockExec keeps a frame stack of (block, iterator) pairs and
 * re-derives everything per dispatch (handler-table lookup, scope-id
 * walk per operand, cost-table lookup), CompiledExec's whole state is
 * a program counter (plus the superinstruction group it is inside):
 * control flow follows pre-computed pc targets, operands are
 * pre-resolved (hops, slot) references into env-chain levels resolved
 * once per exec, and the executing processor's cost-class row is
 * resolved once per exec, so a cost is one indexed load. Suspension
 * (timed ops, awaits, stream stalls) schedules a resume at the saved
 * pc, exactly mirroring the interpreter's suspend/resume protocol so
 * event ordering — and therefore traces and reports — is
 * byte-identical.
 */

#ifndef EQ_SIM_COMPILED_EXEC_HH
#define EQ_SIM_COMPILED_EXEC_HH

#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

/**
 * One execution of a compiled program. Execs are pooled by the engine
 * (Simulator::Impl::acquireExec): init() binds a pooled exec to a new
 * launch, and finish() returns it to the free list. Every wakeup the
 * exec schedules carries the generation it was scheduled under, so a
 * stale wakeup fails an assertion instead of running another launch's
 * program.
 */
class CompiledExec {
  public:
    explicit CompiledExec(Simulator::Impl &eng) : _eng(eng) {}

    /** Bind this (idle) exec to a run of @p prog for launch @p ev
     *  (null: the module top level) on @p proc in @p env. */
    void
    init(Event *ev, Processor *proc, const CompiledBlock &prog, EnvPtr env)
    {
        eq_assert(env->scopeId == prog.scopeId,
                  "compiled program bound to a foreign environment");
        _event = ev;
        _proc = proc;
        _prog = &prog;
        _env = std::move(env);
        _levels[0] = _env.get();
        for (uint32_t h = 1; h <= std::min(prog.maxHops, kMaxFusedHops);
             ++h)
            _levels[h] = _levels[h - 1]->parent.get();
        _costRow =
            _eng.costTable[proc ? static_cast<unsigned>(proc->costClass())
                                : static_cast<unsigned>(CostClass::Root)]
                .data();
        _pc = 0;
        _group = nullptr;
        _spawned.clear();
        _numWatches = 0;
        _awaiting = false;
        _finished = false;
        ++_gen;
    }

    /** Go idle: drop the environment and the call frame's argument
     *  copies (which would otherwise keep tensors alive), keeping the
     *  vectors' capacity for the next launch. */
    void
    release()
    {
        _env.reset();
        _scratch.op = nullptr;
        _scratch.args.clear();
        _finished = true;
    }

    /** (Re-)enter the stream at simulation time @p t (at the saved
     *  pc). */
    void resume(Cycles t);

    /** Scheduled re-entry: @p gen is the generation the wakeup was
     *  scheduled under. */
    void
    wake(uint32_t gen, Cycles t)
    {
        eq_assert(gen == _gen, "resuming a recycled exec");
        resume(t);
    }

    /** Bound to a launch (or the top level) that has not finished. */
    bool running() const { return !_finished; }
    /** Suspended in an await: only an event completing wakes it. */
    bool awaiting() const { return _awaiting; }

  private:
    /** One entry of a loop marked kFlagFastForward, as far as its
     *  iteration boundaries have shown it. */
    struct LoopWatch {
        uint32_t aux = 0;   ///< the loop's ForLoopInfo
        uint32_t tries = 0; ///< full captures in this entry
        /** What @ref state holds of the last boundary: nothing, its
         *  pending work (the first @ref pending words), or its whole
         *  timing state (with @ref counters and @ref at). */
        enum class Saved : uint8_t { None, Pending, Full } saved =
            Saved::None;
        size_t pending = 0;
        Cycles at = 0; ///< the clock at that boundary
        std::vector<uint64_t> state, counters;
    };

    /** The ForEnd of the innermost marked loop @p fl, about to run the
     *  iteration at @p next at @p now. @return the induction value to
     *  run next: @p next, or the last iteration's when this boundary's
     *  timing state equals the previous one's, which makes every later
     *  iteration repeat the last one exactly; the engine then accounts
     *  the skipped ones (Simulator::Impl::fastForward). */
    int64_t boundary(const CompiledBlock::ForLoopInfo &fl, int64_t next,
                     Cycles now);

    /** Resumes this run at max(@p floor, fire time). */
    Wakeup
    wakeup(Cycles floor = 0)
    {
        return {Wakeup::Kind::ResumeExec, _gen, this, floor};
    }

    /** Resolve a pre-compiled value reference along the env chain. */
    SimValue &
    slotAt(const SlotRef &r) const
    {
        if (r.hops <= kMaxFusedHops)
            return _levels[r.hops]->slots[r.slot];
        // Deeper than the resolved levels (absurd launch nesting):
        // walk the rest of the chain for this operand.
        Env *e = _levels[kMaxFusedHops];
        for (uint32_t h = r.hops - kMaxFusedHops; h; --h)
            e = e->parent.get();
        return e->slots[r.slot];
    }

    /** Operand @p i of record @p m; asserts it has a runtime binding
     *  (mirrors the interpreter's eval diagnostics). */
    const SimValue &
    arg(const MicroOp &m, unsigned i) const
    {
        const SimValue &s = slotAt(_prog->args[m.argsBegin + i]);
        eq_assert(!s.isNone(),
                  "use of value with no runtime binding (op '",
                  m.op ? m.op->name() : "?",
                  "'): likely a missing event dependency");
        return s;
    }

    SimValue &
    local(uint32_t slot) const
    {
        return _env->slots[slot];
    }

    void
    bindLocal(uint32_t slot, SimValue v) const
    {
        _env->slots[slot] = std::move(v);
    }

    /** Index operands land in a stack array (no per-access heap
     *  vector); ranks beyond this are rejected at elaboration by the
     *  type system long before execution. */
    static constexpr unsigned kMaxRank = 8;

    /** Index operands of @p m from operand @p first on: its folded
     *  immediates (kFlagImmIdx), or the slots' values copied into
     *  @p buf. */
    const int64_t *
    indices(const MicroOp &m, unsigned first, int64_t *buf) const
    {
        if (m.immIdx())
            return _prog->immIdx.data() + m.immBegin;
        const unsigned n = m.nargs - first;
        eq_assert(n <= kMaxRank, "index rank exceeds kMaxRank");
        for (unsigned i = 0; i < n; ++i)
            buf[i] = arg(m, first + i).asInt();
        return buf;
    }

    /** Cost of record @p m on the executing processor class. */
    Cycles
    costOf(const MicroOp &m) const
    {
        Cycles c = _costRow[m.costId];
        if (c == CostModel::kDynamic)
            c = CostModel::linalgCycles(m.op);
        return c;
    }

    /** Account for an op occupying the processor from @p start for
     *  @p cycles; advances the pc. @return true when the stream must
     *  suspend (the op ends later than @p now *and* another event is
     *  pending first). Mirrors BlockExec::advanceAfter cycle-for-cycle,
     *  except that when this stream's wake-up would be the very next
     *  heap pop anyway, time advances in place (@p now is bumped to
     *  the op's end) and execution continues without the scheduler
     *  round-trip — the same pop the interpreter pays per timed op. */
    bool chargeAfter(const MicroOp &m, Cycles &now, Cycles start,
                     Cycles cycles);

    /** Run the elements of the superinstruction group @ref _group from
     *  @ref _pc on. Each element is accounted exactly like the
     *  interpreter accounts its op — per-element cost,
     *  memory/connection acquisition, trace lines, opsExecuted, and
     *  suspend decisions — so both backends are byte-identical; only
     *  the per-op dispatch (and dead tensor materialization) is saved.
     *  @return true when the group suspended (resume re-enters it at
     *  @ref _pc) or the scope returned; false when the group completed
     *  (@ref _pc is past it). */
    bool execFused(Cycles &now);

    void finish(Cycles t);

    Simulator::Impl &_eng;
    Event *_event = nullptr; ///< null for the module top level
    Processor *_proc = nullptr; ///< executing processor (root proc at top)
    const CompiledBlock *_prog = nullptr;
    EnvPtr _env;
    /** The executing processor class's cost-table row (indexed by
     *  costId); the table is stable for the whole run. */
    const Cycles *_costRow = nullptr;
    /** Env-chain levels 0..min(maxHops, kMaxFusedHops) of @ref _env,
     *  resolved once by init(); the chain is fixed for the run. */
    Env *_levels[kMaxFusedHops + 1] = {};
    /** Next record to run; inside a group, the next element. */
    uint32_t _pc = 0;
    /** Head of the superinstruction group being run, null outside
     *  one. A resume while it is set re-enters the group at @ref _pc
     *  without dispatching (and counting) the head again. */
    const MicroOp *_group = nullptr;
    /** Scratch equeue.op call frame (also create_comp's operand
     *  list): cleared per call, so its argument vector's capacity is
     *  reused across calls and launches. */
    OpCall _scratch;
    SpawnList _spawned;
    /** Bumped by init(); see wake(). */
    uint32_t _gen = 0;
    bool _finished = true;
    bool _awaiting = false;
    /** Entered marked loops, innermost last. An entry borrows its
     *  saved-boundary buffers from the engine (Simulator::Impl::ffLend)
     *  and gives them back when its loop ends. */
    std::vector<LoopWatch> _watches;
    uint32_t _numWatches = 0;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_COMPILED_EXEC_HH
