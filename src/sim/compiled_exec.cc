/**
 * @file
 * The compiled backend's dispatch loop: a dense jump over the
 * micro-op stream (the switch below lowers to a computed jump through
 * an opcode-indexed table — the function-pointer-table equivalent,
 * but with the loop state kept in registers across micro-ops).
 *
 * The main switch handles only the records outside superinstruction
 * groups — control flow, linalg, and elaboration; every data, event,
 * and extern op runs as an element of a MOp::Fused group in
 * execFused(), which walks the records that follow the group's head.
 * Each case mirrors the corresponding interpreter handler exactly —
 * same event creation order, same memory/connection acquisition
 * sequence, same trace records, same opsExecuted accounting — so the
 * two backends are byte-identical on goldens; only the per-op
 * overhead differs. Cold semantics shared with the interpreter live
 * in elaborate.cc (structure ops) and handlers.cc (data-motion cores,
 * linalg functional semantics).
 */

#include "sim/compiled_exec.hh"

#include <algorithm>

namespace eq {
namespace sim {

bool
CompiledExec::chargeAfter(const MicroOp &m, Cycles &now, Cycles start,
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
                _eng.recordTrace(*m.label, _proc, start, cycles);
        }
    }
    _eng.noteActivity(end);
    ++_pc;
    if (end > now) {
        // Time-advance fast path: suspending would push a resume that
        // the scheduler pops immediately (every pending item is
        // strictly later, and ties at `end` must run older-first). In
        // that case nothing can interleave, so advance the clock in
        // place and keep executing. Relative ordering of all other
        // heap items is untouched, so traces stay byte-identical.
        if (_eng.nothingPendingBefore(end)) {
            _eng.now = end;
            now = end;
            return false;
        }
        _eng.scheduleAt(end, wakeup());
        return true;
    }
    return false;
}

CompiledExec *
Simulator::Impl::acquireExec(Event *ev, Processor *proc,
                             const CompiledBlock &prog, EnvPtr env)
{
    CompiledExec *x;
    if (freeExecs.empty()) {
        compiledExecs.push_back(std::make_unique<CompiledExec>(*this));
        x = compiledExecs.back().get();
    } else {
        x = freeExecs.back();
        freeExecs.pop_back();
    }
    x->init(ev, proc, prog, std::move(env));
    return x;
}

void
CompiledExec::finish(Cycles t)
{
    if (_finished)
        return;
    _finished = true;
    _eng.noteActivity(t);
    if (_event)
        _eng.finishLaunch(_event, _proc, t);
    // Nothing can wake this exec any more (a running exec has no
    // pending wakeup), so it goes straight back to the pool. The
    // caller returns without touching it again.
    release();
    _eng.freeExecs.push_back(this);
}

/** Full captures of one loop entry that may fail to repeat before the
 *  entry is left to run in full. */
constexpr uint32_t kFastForwardTries = 4;

int64_t
CompiledExec::boundary(const CompiledBlock::ForLoopInfo &fl, int64_t next,
                       Cycles now)
{
    using Saved = LoopWatch::Saved;
    LoopWatch &w = _watches[_numWatches - 1];
    eq_assert(w.aux == static_cast<uint32_t>(&fl - _prog->forLoops.data()),
              "fast-forward watch out of step with its loop");
    if (!_eng.ffEnabled || w.tries == kFastForwardTries || fl.step <= 0)
        return next;
    std::vector<uint64_t> &state = _eng.ffState;
    std::vector<uint64_t> &counters = _eng.ffCounters;
    if (!_eng.capturePending(this, now, state)) {
        w.saved = Saved::None;
        return next;
    }
    // The pending part (the awaiting execs and the completion firing
    // below the boundary) is cheap to compare: the components are
    // captured only once it repeats.
    const size_t pending = state.size();
    if (w.saved == Saved::None || w.pending != pending ||
        !std::equal(state.begin(), state.end(), w.state.begin())) {
        _eng.ffLend(w.state);
        std::swap(w.state, state);
        w.pending = pending;
        w.saved = Saved::Pending;
        return next;
    }
    ++w.tries;
    if (!_eng.captureComponents(state, counters)) {
        w.saved = Saved::None;
        return next;
    }
    if (w.saved == Saved::Full && state == w.state) {
        w.tries = kFastForwardTries;
        // Iterations left, the one at `next` included: all but the
        // last are skipped.
        const uint64_t step = static_cast<uint64_t>(fl.step);
        const uint64_t left =
            (static_cast<uint64_t>(fl.ub) - static_cast<uint64_t>(next) -
             1) / step + 1;
        if (left > 1 &&
            _eng.fastForward(left - 1, now - w.at, w.counters, counters))
            return static_cast<int64_t>(static_cast<uint64_t>(next) +
                                        (left - 1) * step);
        return next;
    }
    _eng.ffLend(w.counters);
    std::swap(w.state, state);
    std::swap(w.counters, counters);
    w.at = now;
    w.saved = Saved::Full;
    return next;
}

void
CompiledExec::resume(Cycles t)
{
    eq_assert(!_finished, "resuming finished block");
    _awaiting = false;
    Cycles now = t;
    _eng.now = std::max(_eng.now, t);
    // Re-entering a group that suspended mid-way: its head was
    // dispatched (and counted) already.
    if (_group && execFused(now))
        return;
    const MicroOp *code = _prog->code.data();
    for (;;) {
        const MicroOp &m = code[_pc];
        if (m.counts()) {
            ++_eng.dispatchCount;
            _eng.countOp();
        }
        switch (m.code) {
        // --- control flow -------------------------------------------
        case MOp::ForBegin: {
            const auto &fl = _prog->forLoops[m.aux];
            if (fl.lb >= fl.ub) {
                _pc = m.target;
                continue;
            }
            local(fl.ivSlot) = SimValue::ofInt(fl.lb);
            if (m.flags & kFlagFastForward) {
                if (_numWatches == _watches.size())
                    _watches.emplace_back();
                LoopWatch &w = _watches[_numWatches++];
                w.aux = m.aux;
                w.tries = 0;
                w.saved = LoopWatch::Saved::None;
            }
            ++_pc;
            continue;
        }
        case MOp::ForEnd: {
            const auto &fl = _prog->forLoops[m.aux];
            int64_t iv = local(fl.ivSlot).asInt() + fl.step;
            if (iv < fl.ub) {
                if (m.flags & kFlagFastForward)
                    iv = boundary(fl, iv, now);
                local(fl.ivSlot) = SimValue::ofInt(iv);
                _pc = m.target;
            } else {
                if (m.flags & kFlagFastForward) {
                    LoopWatch &w = _watches[--_numWatches];
                    _eng.ffGive(w.state);
                    _eng.ffGive(w.counters);
                }
                ++_pc;
            }
            continue;
        }
        case MOp::ParBegin: {
            const auto &pl = _prog->parLoops[m.aux];
            bool empty = pl.lbs.empty();
            for (size_t i = 0; i < pl.lbs.size(); ++i)
                if (pl.lbs[i] >= pl.ubs[i])
                    empty = true;
            if (empty) {
                _pc = m.target;
                continue;
            }
            for (size_t i = 0; i < pl.lbs.size(); ++i)
                local(pl.ivSlots[i]) = SimValue::ofInt(pl.lbs[i]);
            ++_pc;
            continue;
        }
        case MOp::ParEnd: {
            const auto &pl = _prog->parLoops[m.aux];
            // Lexicographic increment of the induction vector, kept
            // live in the slots themselves.
            int dim = static_cast<int>(pl.ivSlots.size()) - 1;
            while (dim >= 0) {
                int64_t v = local(pl.ivSlots[dim]).asInt() +
                            pl.steps[dim];
                if (v < pl.ubs[dim]) {
                    local(pl.ivSlots[dim]) = SimValue::ofInt(v);
                    break;
                }
                local(pl.ivSlots[dim]) = SimValue::ofInt(pl.lbs[dim]);
                --dim;
            }
            if (dim >= 0)
                _pc = m.target;
            else
                ++_pc;
            continue;
        }
        case MOp::Yield:
            // Loop back-edge: charge the cost, fall through to the
            // loop-End record.
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        case MOp::NestedModule:
            // Counted like any dispatch; the body is inlined next.
            ++_pc;
            continue;
        case MOp::Halt:
            finish(now);
            return;

        // --- linalg --------------------------------------------------
        case MOp::LinalgConv: {
            Cycles cycles = costOf(m);
            _eng.linalgConvCompute(m.op, arg(m, 0).asBuffer(),
                                   arg(m, 1).asBuffer(),
                                   arg(m, 2).asBuffer());
            if (chargeAfter(m, now, now, cycles))
                return;
            continue;
        }
        case MOp::LinalgFill: {
            Cycles cycles = costOf(m);
            _eng.linalgFillCompute(m.op, arg(m, 0).asBuffer());
            if (chargeAfter(m, now, now, cycles))
                return;
            continue;
        }
        case MOp::LinalgMatmul: {
            Cycles cycles = costOf(m);
            _eng.linalgMatmulCompute(arg(m, 0).asBuffer(),
                                     arg(m, 1).asBuffer(),
                                     arg(m, 2).asBuffer());
            if (chargeAfter(m, now, now, cycles))
                return;
            continue;
        }
        case MOp::LinalgOther:
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;

        // --- elaboration (shared cores in elaborate.cc) -------------
        case MOp::CreateProc:
            bindLocal(m.result, _eng.elabCreateProc(m.op));
            ++_pc;
            continue;
        case MOp::CreateDma:
            bindLocal(m.result, _eng.elabCreateDma());
            ++_pc;
            continue;
        case MOp::CreateMem:
            bindLocal(m.result, _eng.elabCreateMem(m.op));
            ++_pc;
            continue;
        case MOp::CreateStream:
            bindLocal(m.result, _eng.elabCreateStream(m.op));
            ++_pc;
            continue;
        case MOp::CreateConnection:
            bindLocal(m.result, _eng.elabCreateConnection(m.op));
            ++_pc;
            continue;
        case MOp::CreateComp: {
            bool is_add = m.flags & kFlagIsAddComp;
            _scratch.args.clear();
            for (unsigned i = 0; i < m.nargs; ++i)
                _scratch.args.push_back(arg(m, i));
            SimValue r = _eng.elabCreateOrAddComp(
                _scratch.args.data(), _scratch.args.size(), is_add,
                _prog->strings.data() + m.aux);
            _scratch.args.clear();
            if (!is_add)
                bindLocal(m.result, r);
            ++_pc;
            continue;
        }
        case MOp::GetComp:
            bindLocal(m.result,
                      _eng.elabGetComp(arg(m, 0).asComponent(),
                                       _prog->strings[m.aux]));
            ++_pc;
            continue;
        case MOp::Alloc: {
            Memory *mem =
                m.flags & kFlagEqueueAlloc
                    ? static_cast<Memory *>(arg(m, 0).asComponent())
                    : nullptr;
            bindLocal(m.result, _eng.elabAlloc(m.op, mem));
            ++_pc;
            continue;
        }
        case MOp::Dealloc:
            ++_pc;
            continue;

        // --- every data op: superinstruction groups ----------------
        case MOp::Fused:
            // One jump-table dispatch for the whole group.
            ++_eng.dispatchCount;
            _group = &m;
            ++_pc;
            if (execFused(now))
                return;
            continue;

        case MOp::Bad:
        default:
            simulationFailed(detail::formatMessage(
                "simulation engine cannot interpret op '",
                m.op ? m.op->name() : "?", "'"));
        }
    }
}

/*
 * The element cases below are the compiled backend's only definition
 * of each data op (the compiler wraps even a lone record in a
 * one-element group); the interpreter's handlers are the second,
 * reference definition. They are written out per op rather than shared
 * through a templated core: the specializations — folded indices,
 * scalarized cell reads, cached extern functions — are the point of
 * fusion. When changing any op's semantics, update both sites; the
 * interp-vs-compiled equivalence tests (tests/sim/test_backend_equiv.cc,
 * test_fuse.cc) and the golden legs fail on any divergence an op can
 * exhibit in those workloads.
 */
bool
CompiledExec::execFused(Cycles &now)
{
    const MicroOp *code = _prog->code.data();
    const uint32_t end = _group->target;
    while (_pc < end) {
        const MicroOp &e = code[_pc];
        // opsExecuted parity: every element is one interpreter
        // dispatch (elements re-executed after a stream wait re-count,
        // exactly like the interpreter's re-executed op).
        _eng.countOp();
        switch (e.code) {
        case MOp::Constant:
            bindLocal(e.result, _prog->consts[e.aux]);
            ++_pc;
            continue;
        case MOp::AddI:
            bindLocal(e.result, SimValue::ofInt(arithAddI(
                                    arg(e, 0).asInt(), arg(e, 1).asInt())));
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        case MOp::SubI:
            bindLocal(e.result, SimValue::ofInt(arithSubI(
                                    arg(e, 0).asInt(), arg(e, 1).asInt())));
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        case MOp::MulI:
            bindLocal(e.result, SimValue::ofInt(arithMulI(
                                    arg(e, 0).asInt(), arg(e, 1).asInt())));
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        case MOp::DivSI: {
            int64_t lhs = arg(e, 0).asInt();
            int64_t rhs = arg(e, 1).asInt();
            bindLocal(e.result, SimValue::ofInt(arithDivSI(lhs, rhs)));
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        }
        case MOp::RemSI: {
            int64_t lhs = arg(e, 0).asInt();
            int64_t rhs = arg(e, 1).asInt();
            bindLocal(e.result, SimValue::ofInt(arithRemSI(lhs, rhs)));
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        }
        case MOp::AddF:
            bindLocal(e.result,
                      SimValue::ofFloat(arg(e, 0).asFloat() +
                                        arg(e, 1).asFloat()));
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        case MOp::MulF:
            bindLocal(e.result,
                      SimValue::ofFloat(arg(e, 0).asFloat() *
                                        arg(e, 1).asFloat()));
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;

        case MOp::Load: {
            BufferObj *buf = arg(e, 0).asBuffer();
            int64_t idxbuf[kMaxRank];
            const unsigned nidx = e.nargs - 1;
            const int64_t *idx = indices(e, 1, idxbuf);
            int64_t off = buf->data->offset(idx, nidx);
            Cycles start = _eng.bufferAccessStart(
                buf, nullptr, /*is_write=*/false, 1,
                (buf->data->elemBits + 7) / 8, now);
            bindLocal(e.result, SimValue::ofInt(buf->data->data[off]));
            if (chargeAfter(e, now, start, costOf(e)))
                return true;
            continue;
        }
        case MOp::Store: {
            BufferObj *buf = arg(e, 1).asBuffer();
            int64_t idxbuf[kMaxRank];
            const unsigned nidx = e.nargs - 2;
            const int64_t *idx = indices(e, 2, idxbuf);
            int64_t off = buf->data->offset(idx, nidx);
            Cycles start = _eng.bufferAccessStart(
                buf, nullptr, /*is_write=*/true, 1,
                (buf->data->elemBits + 7) / 8, now);
            buf->data->data[off] = arg(e, 0).asInt();
            if (chargeAfter(e, now, start, costOf(e)))
                return true;
            continue;
        }

        case MOp::Read: {
            BufferObj *buf = arg(e, 0).asBuffer();
            Connection *conn =
                e.hasConn() ? arg(e, 1).asConnection() : nullptr;
            const unsigned idx0 = e.hasConn() ? 2 : 1;
            const unsigned nidx = e.nargs - idx0;
            int64_t bytes;
            int64_t words;
            if (nidx == 0) {
                if (e.scalarize() && buf->data->numElements() == 1) {
                    // All uses proven in-group and scalar-compatible:
                    // bind the cell's value directly — byte counts and
                    // consumer behavior match the 1-element tensor the
                    // interpreter would have materialized.
                    bytes = (buf->data->elemBits + 7) / 8;
                    words = 1;
                    bindLocal(e.result,
                              SimValue::ofInt(buf->data->data[0]));
                } else {
                    TensorPtr copy = TensorPtr::make(*buf->data);
                    bytes = copy->sizeBytes();
                    words = buf->data->numElements();
                    bindLocal(e.result, SimValue::ofTensor(std::move(copy)));
                }
            } else {
                int64_t idxbuf[kMaxRank];
                const int64_t *idx = indices(e, idx0, idxbuf);
                bytes = (buf->data->elemBits + 7) / 8;
                words = 1;
                bindLocal(
                    e.result,
                    SimValue::ofInt(
                        buf->data
                            ->data[buf->data->offset(idx, nidx)]));
            }
            Cycles start = _eng.bufferAccessStart(
                buf, conn, /*is_write=*/false, words, bytes, now);
            if (chargeAfter(e, now, start, costOf(e)))
                return true;
            continue;
        }
        case MOp::Write: {
            const SimValue &val = arg(e, 0);
            BufferObj *buf = arg(e, 1).asBuffer();
            Connection *conn =
                e.hasConn() ? arg(e, 2).asConnection() : nullptr;
            const unsigned idx0 = e.hasConn() ? 3 : 2;
            const unsigned nidx = e.nargs - idx0;
            int64_t bytes;
            if (nidx == 0 && val.isTensor()) {
                auto src = val.asTensor();
                int64_t nn = std::min(src->numElements(),
                                      buf->data->numElements());
                std::copy_n(src->data.begin(), nn,
                            buf->data->data.begin());
                bytes = nn * ((buf->data->elemBits + 7) / 8);
            } else if (nidx > 0) {
                int64_t idxbuf[kMaxRank];
                const int64_t *idx = indices(e, idx0, idxbuf);
                buf->data->data[buf->data->offset(idx, nidx)] =
                    val.asInt();
                bytes = (buf->data->elemBits + 7) / 8;
            } else {
                // Scalar into rank-0/1 buffer: write element 0.
                buf->data->data[0] = val.asInt();
                bytes = (buf->data->elemBits + 7) / 8;
            }
            int64_t words = nidx == 0 && val.isTensor()
                                ? val.asTensor()->numElements()
                                : 1;
            Cycles start = _eng.bufferAccessStart(
                buf, conn, /*is_write=*/true, words, bytes, now);
            if (chargeAfter(e, now, start, costOf(e)))
                return true;
            continue;
        }

        case MOp::StreamRead: {
            StreamFifo *fifo = arg(e, 0).asStream();
            size_t elems = static_cast<size_t>(e.imm);
            Cycles ready = fifo->readyTime(elems);
            if (ready == StreamFifo::kNoReadyTime) {
                // Re-execute this element when the producer pushes
                // (the interpreter re-executes its op the same way).
                _eng.streamWaiters[fifo].push_back(wakeup());
                return true;
            }
            if (ready > now) {
                if (_eng.nothingPendingBefore(ready)) {
                    _eng.now = ready;
                    now = ready;
                    continue; // re-execute this element at `ready`
                }
                _eng.scheduleAt(ready, wakeup());
                return true;
            }
            auto vals = fifo->pop(elems);
            auto tensor = Tensor::zeros({static_cast<int64_t>(elems)},
                                        fifo->dataBits());
            tensor->data = std::move(vals);
            bindLocal(e.result, SimValue::ofTensor(tensor));
            if (e.hasConn()) {
                Connection *conn = arg(e, 1).asConnection();
                int64_t bytes = tensor->sizeBytes();
                conn->recordTransfer(
                    true, now,
                    now + std::max<Cycles>(conn->transferCycles(bytes),
                                           1),
                    bytes);
            }
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        }
        case MOp::StreamWrite: {
            const SimValue &val = arg(e, 0);
            StreamFifo *fifo = arg(e, 1).asStream();
            Connection *conn =
                e.hasConn() ? arg(e, 2).asConnection() : nullptr;
            std::vector<int64_t> elems;
            if (val.isTensor())
                elems = val.asTensor()->data;
            else
                elems.push_back(val.asInt());
            _eng.streamPush(fifo, conn, elems, now);
            if (chargeAfter(e, now, now, costOf(e)))
                return true;
            continue;
        }

        case MOp::Extern: {
            // Scratch call frame + compile-time-cached function pointer:
            // no per-call signature lookup, no argument-vector churn.
            _scratch.op = e.op;
            _scratch.proc = _proc;
            _scratch.args.clear();
            _scratch.args.reserve(e.nargs);
            for (unsigned i = 0; i < e.nargs; ++i)
                _scratch.args.push_back(arg(e, i));
            OpFnResult r = e.fn ? (*e.fn)(_scratch)
                                : _eng.opFns.invoke(*e.label, _scratch);
            eq_assert(r.results.size() >= static_cast<size_t>(e.imm),
                      "op function returned too few results for '",
                      *e.label, "'");
            for (unsigned i = 0; i < e.imm; ++i) {
                eq_assert(!r.results[i].isNone(), "op function for '",
                          *e.label,
                          "' returned an empty SimValue for result ",
                          i);
                bindLocal(_prog->resultPool[e.aux + i],
                          r.results[i]);
            }
            Cycles cycles = std::max(costOf(e), r.cycles);
            if (chargeAfter(e, now, now, cycles))
                return true;
            continue;
        }

        // --- events (position-independent, so they fuse too) --------
        case MOp::ControlStart: {
            bindLocal(e.result, SimValue::ofEvent(_eng.startEvent(now)));
            ++_pc;
            continue;
        }
        case MOp::ControlAnd:
        case MOp::ControlOr: {
            bool is_and = e.code == MOp::ControlAnd;
            Event *ev = _eng.events.create(
                is_and ? Event::Kind::And : Event::Kind::Or);
            for (unsigned i = 0; i < e.nargs; ++i)
                ev->deps.push_back(arg(e, i).asEvent());
            bindLocal(e.result, SimValue::ofEvent(ev->id));
            Wakeup done{Wakeup::Kind::Complete, 0, ev, 0};
            if (is_and)
                _eng.whenAllDone(ev->deps.data(), ev->deps.size(), done);
            else
                _eng.whenAnyDone(ev->deps.data(), ev->deps.size(), done);
            ++_pc;
            continue;
        }
        case MOp::Launch: {
            unsigned ndeps = static_cast<unsigned>(e.imm);
            Event *ev = _eng.events.create(Event::Kind::Launch);
            for (unsigned i = 0; i < ndeps; ++i)
                ev->deps.push_back(arg(e, i).asEvent());
            ev->op = e.op;
            ev->proc = static_cast<Processor *>(
                arg(e, ndeps).asComponent());
            ev->creatorEnv = _env;
            const auto &site = _prog->launches[e.aux];
            ev->bodyProg = site.body;
            ev->captures = _prog->captures.data() + site.capturesBegin;
            ev->numCaptures = site.numCaptures;
            bindLocal(e.result, SimValue::ofEvent(ev->id));
            _spawned.push(ev->id, _eng.events);
            _eng.enqueueOnProcessor(ev, now);
            ++_pc;
            continue;
        }
        case MOp::Memcpy: {
            Event *ev = _eng.events.create(Event::Kind::Memcpy);
            ev->deps.push_back(arg(e, 0).asEvent());
            ev->op = e.op;
            ev->src = arg(e, 1).asBuffer();
            ev->dst = arg(e, 2).asBuffer();
            ev->proc =
                static_cast<Processor *>(arg(e, 3).asComponent());
            if (e.hasConn())
                ev->conn = arg(e, 4).asConnection();
            ev->creatorEnv = _env;
            bindLocal(e.result, SimValue::ofEvent(ev->id));
            _spawned.push(ev->id, _eng.events);
            _eng.enqueueOnProcessor(ev, now);
            ++_pc;
            continue;
        }
        case MOp::Await: {
            if (e.nargs == 0) {
                // Await-all fast path (see BlockExec::execAwait):
                // done events are timing-irrelevant (doneTime <= now),
                // so compact the spawned list to the pending tail and
                // subscribe to exactly those in one pass.
                size_t w = _spawned.compact(_eng.events);
                ++_pc;
                if (w == 0)
                    continue;
                _eng.whenAllDone(_spawned.data(), w, wakeup(now));
                _awaiting = true;
                return true;
            }
            std::vector<EventId> &ids = _eng.idScratch;
            ids.clear();
            bool all_done = true;
            Cycles max_t = now;
            for (unsigned i = 0; i < e.nargs; ++i) {
                EventId id = arg(e, i).asEvent();
                ids.push_back(id);
                uint64_t word = _eng.events.word(id);
                if (!EventStore::isDone(word))
                    all_done = false;
                else
                    max_t = std::max(max_t, word);
            }
            ++_pc;
            if (all_done) {
                now = std::max(now, max_t);
                continue;
            }
            _eng.whenAllDone(ids.data(), ids.size(), wakeup(now));
            _awaiting = true;
            return true;
        }
        case MOp::Return:
            // Only ever the last element of a group.
            if (_event) {
                for (unsigned i = 0; i < e.nargs; ++i)
                    _event->results.push_back(arg(e, i));
            }
            finish(now);
            return true;

        default:
            eq_panic("unexpected opcode inside a fused group");
        }
    }
    _group = nullptr;
    return false;
}

} // namespace sim
} // namespace eq
