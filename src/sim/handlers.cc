/**
 * @file
 * Per-op handlers for compute (arith, linalg), data movement (affine
 * load/store, equeue read/write, streams), and event ops (control
 * chains, launch, memcpy, await). Dispatched through the engine's
 * OpId-indexed table; none of these compare op names.
 *
 * The memory/connection acquisition sequences and the linalg
 * functional semantics live in Simulator::Impl cores shared with the
 * compiled backend (compiled_exec.cc), so both backends stay
 * cycle-identical by construction.
 */

#include <algorithm>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "dialects/linalg.hh"
#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

// ---------------------------------------------------------------------------
// Shared data-motion cores

Cycles
Simulator::Impl::bufferAccessStart(BufferObj *buf, Connection *conn,
                                   bool is_write, int64_t words,
                                   int64_t bytes, Cycles now)
{
    Cycles start = now;
    if (buf->mem) {
        Cycles occ = buf->mem->getReadOrWriteCycles(is_write, words);
        start = std::max(start, buf->mem->acquire(now, occ));
        buf->mem->recordAccess(is_write, bytes);
    }
    if (conn) {
        Cycles c = conn->transferCycles(bytes);
        Cycles cstart = conn->acquireChannel(!is_write, start, c);
        conn->recordTransfer(!is_write, cstart,
                             cstart + std::max<Cycles>(c, 1), bytes);
        noteActivity(cstart + c); // link busy past proc time
        start = std::max(start, cstart);
    }
    return start;
}

void
Simulator::Impl::streamPush(StreamFifo *fifo, Connection *conn,
                            const std::vector<int64_t> &elems, Cycles now)
{
    int64_t bytes = static_cast<int64_t>(elems.size()) *
                    ((fifo->dataBits() + 7) / 8);
    Cycles avail = now;
    if (conn) {
        Cycles c = conn->transferCycles(bytes);
        Cycles cstart = conn->acquireChannel(false, now, c);
        conn->recordTransfer(false, cstart,
                             cstart + std::max<Cycles>(c, 1), bytes);
        avail = cstart + c;
    }
    for (int64_t v : elems)
        fifo->push(v, avail);
    noteActivity(avail);
    notifyStream(fifo);
}

// ---------------------------------------------------------------------------
// Shared linalg functional semantics

void
Simulator::Impl::linalgConvCompute(ir::Operation *op, BufferObj *ib,
                                   BufferObj *wb, BufferObj *ob)
{
    auto d = linalg::convDims(op);
    auto at3 = [](BufferObj *b, int64_t i, int64_t j,
                  int64_t k) -> int64_t & {
        auto &sh = b->data->shape;
        return b->data->data[(i * sh[1] + j) * sh[2] + k];
    };
    for (int64_t n = 0; n < d.N; ++n)
        for (int64_t eh = 0; eh < d.Eh; ++eh)
            for (int64_t ew = 0; ew < d.Ew; ++ew) {
                int64_t acc = at3(ob, n, eh, ew);
                for (int64_t c = 0; c < d.C; ++c)
                    for (int64_t fh = 0; fh < d.Fh; ++fh)
                        for (int64_t fw = 0; fw < d.Fw; ++fw) {
                            int64_t iv = at3(ib, c, eh + fh, ew + fw);
                            auto &wsh = wb->data->shape;
                            int64_t wv = wb->data->data
                                [((n * wsh[1] + c) * wsh[2] + fh) *
                                     wsh[3] +
                                 fw];
                            acc += iv * wv;
                        }
                at3(ob, n, eh, ew) = acc;
            }
    // Analytic memory traffic: per MAC, read ifmap+weight+ofmap
    // and write ofmap once per accumulation chain.
    int64_t word = 4;
    if (ib->mem)
        ib->mem->recordAccess(false, d.macs() * word);
    if (wb->mem)
        wb->mem->recordAccess(false, d.macs() * word);
    if (ob->mem) {
        ob->mem->recordAccess(false, d.macs() * word);
        ob->mem->recordAccess(true, d.macs() * word);
    }
}

void
Simulator::Impl::linalgFillCompute(ir::Operation *op, BufferObj *b)
{
    linalg::FillOp fill(op);
    std::fill(b->data->data.begin(), b->data->data.end(),
              fill.fillValue());
    if (b->mem)
        b->mem->recordAccess(true, b->sizeBytes());
}

void
Simulator::Impl::linalgMatmulCompute(BufferObj *a, BufferObj *bm,
                                     BufferObj *c)
{
    auto &as = a->data->shape;
    auto &bs = bm->data->shape;
    for (int64_t i = 0; i < as[0]; ++i)
        for (int64_t j = 0; j < bs[1]; ++j) {
            int64_t acc = c->data->data[i * bs[1] + j];
            for (int64_t k = 0; k < as[1]; ++k)
                acc += a->data->data[i * as[1] + k] *
                       bm->data->data[k * bs[1] + j];
            c->data->data[i * bs[1] + j] = acc;
        }
}

// ---------------------------------------------------------------------------
// Scalar compute

BlockExec::Step
BlockExec::execArithConstant(ir::Operation *op, Cycles &now)
{
    (void)now;
    ir::Attribute v = op->attr("value");
    bind(op->result(0), v.kind() == ir::AttrKind::Float
                            ? SimValue::ofFloat(v.asFloat())
                            : SimValue::ofInt(v.asInt()));
    return advanceFree();
}

BlockExec::Step
BlockExec::execAddI(ir::Operation *op, Cycles &now)
{
    int64_t lhs = eval(op->operand(0)).asInt();
    int64_t rhs = eval(op->operand(1)).asInt();
    bind(op->result(0), SimValue::ofInt(arithAddI(lhs, rhs)));
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execSubI(ir::Operation *op, Cycles &now)
{
    int64_t lhs = eval(op->operand(0)).asInt();
    int64_t rhs = eval(op->operand(1)).asInt();
    bind(op->result(0), SimValue::ofInt(arithSubI(lhs, rhs)));
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execMulI(ir::Operation *op, Cycles &now)
{
    int64_t lhs = eval(op->operand(0)).asInt();
    int64_t rhs = eval(op->operand(1)).asInt();
    bind(op->result(0), SimValue::ofInt(arithMulI(lhs, rhs)));
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execDivSI(ir::Operation *op, Cycles &now)
{
    int64_t lhs = eval(op->operand(0)).asInt();
    int64_t rhs = eval(op->operand(1)).asInt();
    bind(op->result(0), SimValue::ofInt(arithDivSI(lhs, rhs)));
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execRemSI(ir::Operation *op, Cycles &now)
{
    int64_t lhs = eval(op->operand(0)).asInt();
    int64_t rhs = eval(op->operand(1)).asInt();
    bind(op->result(0), SimValue::ofInt(arithRemSI(lhs, rhs)));
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execAddF(ir::Operation *op, Cycles &now)
{
    bind(op->result(0), SimValue::ofFloat(eval(op->operand(0)).asFloat() +
                                          eval(op->operand(1)).asFloat()));
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execMulF(ir::Operation *op, Cycles &now)
{
    bind(op->result(0), SimValue::ofFloat(eval(op->operand(0)).asFloat() *
                                          eval(op->operand(1)).asFloat()));
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execArithUnsupported(ir::Operation *op, Cycles &now)
{
    (void)now;
    simulationFailed(
        detail::formatMessage("unsupported arith op '", op->name(), "'"));
}

// ---------------------------------------------------------------------------
// Affine memory ops

BlockExec::Step
BlockExec::execAffineLoadStore(ir::Operation *op, Cycles &now)
{
    bool is_store = op->opId() == _eng.idAffineStore;
    affine::LoadOp load(op);
    affine::StoreOp store(op);
    BufferObj *buf =
        eval(is_store ? store.memref() : load.memref()).asBuffer();
    auto idx_vals = is_store ? store.indices() : load.indices();
    std::vector<int64_t> idx;
    for (ir::Value v : idx_vals)
        idx.push_back(eval(v).asInt());
    int64_t off = buf->data->offset(idx);
    Cycles start = _eng.bufferAccessStart(
        buf, nullptr, is_store, 1, (buf->data->elemBits + 7) / 8, now);
    if (is_store)
        buf->data->data[off] = eval(store.value()).asInt();
    else
        bind(op->result(0), SimValue::ofInt(buf->data->data[off]));
    return advanceAfter(op, now, start, opCost(op));
}

// ---------------------------------------------------------------------------
// Linalg ops

BlockExec::Step
BlockExec::execLinalg(ir::Operation *op, Cycles &now)
{
    // Root-level orchestration (e.g. filling test inputs) is free;
    // only modeled processors pay the analytic cost.
    Cycles cycles = opCost(op);
    if (op->opId() == _eng.idConv) {
        linalg::ConvOp conv(op);
        _eng.linalgConvCompute(op, eval(conv.ifmap()).asBuffer(),
                               eval(conv.weight()).asBuffer(),
                               eval(conv.ofmap()).asBuffer());
    } else if (op->opId() == _eng.idFill) {
        _eng.linalgFillCompute(op, eval(op->operand(0)).asBuffer());
    } else if (op->opId() == _eng.idMatmul) {
        _eng.linalgMatmulCompute(eval(op->operand(0)).asBuffer(),
                                 eval(op->operand(1)).asBuffer(),
                                 eval(op->operand(2)).asBuffer());
    }
    return advanceAfter(op, now, now, cycles);
}

// ---------------------------------------------------------------------------
// EQueue data movement

BlockExec::Step
BlockExec::execRead(ir::Operation *op, Cycles &now)
{
    equeue::ReadOp read(op);
    BufferObj *buf = eval(read.buffer()).asBuffer();
    Connection *conn =
        read.hasConn() ? eval(read.conn()).asConnection() : nullptr;
    auto idx_vals = read.indices();
    int64_t bytes;
    if (idx_vals.empty()) {
        TensorPtr copy = TensorPtr::make(*buf->data);
        bytes = copy->sizeBytes();
        bind(op->result(0), SimValue::ofTensor(std::move(copy)));
    } else {
        std::vector<int64_t> idx;
        for (ir::Value v : idx_vals)
            idx.push_back(eval(v).asInt());
        bytes = (buf->data->elemBits + 7) / 8;
        bind(op->result(0),
             SimValue::ofInt(buf->data->data[buf->data->offset(idx)]));
    }
    int64_t words = idx_vals.empty() ? buf->data->numElements() : 1;
    Cycles start = _eng.bufferAccessStart(buf, conn, /*is_write=*/false,
                                          words, bytes, now);
    return advanceAfter(op, now, start, opCost(op));
}

BlockExec::Step
BlockExec::execWrite(ir::Operation *op, Cycles &now)
{
    equeue::WriteOp write(op);
    BufferObj *buf = eval(write.buffer()).asBuffer();
    Connection *conn =
        write.hasConn() ? eval(write.conn()).asConnection() : nullptr;
    SimValue val = eval(write.value());
    auto idx_vals = write.indices();
    int64_t bytes;
    if (idx_vals.empty() && val.isTensor()) {
        auto src = val.asTensor();
        int64_t n =
            std::min(src->numElements(), buf->data->numElements());
        std::copy_n(src->data.begin(), n, buf->data->data.begin());
        bytes = n * ((buf->data->elemBits + 7) / 8);
    } else if (!idx_vals.empty()) {
        std::vector<int64_t> idx;
        for (ir::Value v : idx_vals)
            idx.push_back(eval(v).asInt());
        buf->data->data[buf->data->offset(idx)] = val.asInt();
        bytes = (buf->data->elemBits + 7) / 8;
    } else {
        // Scalar into rank-0/1 buffer: write element 0.
        buf->data->data[0] = val.asInt();
        bytes = (buf->data->elemBits + 7) / 8;
    }
    int64_t words = idx_vals.empty() && val.isTensor()
                        ? val.asTensor()->numElements()
                        : 1;
    Cycles start = _eng.bufferAccessStart(buf, conn, /*is_write=*/true,
                                          words, bytes, now);
    return advanceAfter(op, now, start, opCost(op));
}

BlockExec::Step
BlockExec::execStreamRead(ir::Operation *op, Cycles &now)
{
    equeue::StreamReadOp read(op);
    StreamFifo *fifo = eval(read.stream()).asStream();
    size_t elems = static_cast<size_t>(op->intAttr("elems"));
    Cycles ready = fifo->readyTime(elems);
    if (ready == StreamFifo::kNoReadyTime) {
        // Not enough elements yet: re-dispatch the same op when the
        // producer pushes.
        _eng.streamWaiters[fifo].push_back(wakeup());
        return Step::Suspend;
    }
    if (ready > now) {
        _eng.scheduleAt(ready, wakeup());
        return Step::Suspend;
    }
    auto vals = fifo->pop(elems);
    auto tensor = Tensor::zeros({static_cast<int64_t>(elems)},
                                fifo->dataBits());
    tensor->data = std::move(vals);
    bind(op->result(0), SimValue::ofTensor(tensor));
    // The reader-side connection records bytes for profiling, but the
    // arrival rate was already shaped by the producer (§VII-E).
    if (read.hasConn()) {
        Connection *conn = eval(read.conn()).asConnection();
        int64_t bytes = tensor->sizeBytes();
        conn->recordTransfer(
            true, now,
            now + std::max<Cycles>(conn->transferCycles(bytes), 1), bytes);
    }
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execStreamWrite(ir::Operation *op, Cycles &now)
{
    equeue::StreamWriteOp write(op);
    StreamFifo *fifo = eval(write.stream()).asStream();
    SimValue val = eval(write.value());
    std::vector<int64_t> elems;
    if (val.isTensor())
        elems = val.asTensor()->data;
    else
        elems.push_back(val.asInt());
    Connection *conn =
        write.hasConn() ? eval(write.conn()).asConnection() : nullptr;
    _eng.streamPush(fifo, conn, elems, now);
    return advanceAfter(op, now, now, opCost(op));
}

// ---------------------------------------------------------------------------
// EQueue events

BlockExec::Step
BlockExec::execControlStart(ir::Operation *op, Cycles &now)
{
    bind(op->result(0), SimValue::ofEvent(_eng.startEvent(now)));
    return advanceFree();
}

BlockExec::Step
BlockExec::execControlAndOr(ir::Operation *op, Cycles &now)
{
    (void)now;
    bool is_and = op->opId() == _eng.idControlAnd;
    Event *ev = _eng.events.create(is_and ? Event::Kind::And
                                         : Event::Kind::Or);
    for (ir::Value v : op->operands())
        ev->deps.push_back(eval(v).asEvent());
    bind(op->result(0), SimValue::ofEvent(ev->id));
    Wakeup done{Wakeup::Kind::Complete, 0, ev, 0};
    if (is_and)
        _eng.whenAllDone(ev->deps.data(), ev->deps.size(), done);
    else
        _eng.whenAnyDone(ev->deps.data(), ev->deps.size(), done);
    return advanceFree();
}

BlockExec::Step
BlockExec::execLaunch(ir::Operation *op, Cycles &now)
{
    equeue::LaunchOp launch(op);
    Event *ev = _eng.events.create(Event::Kind::Launch);
    for (ir::Value d : launch.deps())
        ev->deps.push_back(eval(d).asEvent());
    ev->op = op;
    ev->proc =
        static_cast<Processor *>(eval(launch.proc()).asComponent());
    ev->creatorEnv = _env;
    bind(op->result(0), SimValue::ofEvent(ev->id));
    _spawned.push(ev->id, _eng.events);
    _eng.enqueueOnProcessor(ev, now);
    return advanceFree();
}

BlockExec::Step
BlockExec::execMemcpy(ir::Operation *op, Cycles &now)
{
    equeue::MemcpyOp mc(op);
    Event *ev = _eng.events.create(Event::Kind::Memcpy);
    ev->deps.push_back(eval(mc.dep()).asEvent());
    ev->op = op;
    ev->proc = static_cast<Processor *>(eval(mc.dma()).asComponent());
    ev->src = eval(mc.src()).asBuffer();
    ev->dst = eval(mc.dst()).asBuffer();
    if (mc.hasConn())
        ev->conn = eval(mc.conn()).asConnection();
    ev->creatorEnv = _env;
    bind(op->result(0), SimValue::ofEvent(ev->id));
    _spawned.push(ev->id, _eng.events);
    _eng.enqueueOnProcessor(ev, now);
    return advanceFree();
}

BlockExec::Step
BlockExec::execAwait(ir::Operation *op, Cycles &now)
{
    if (op->numOperands() == 0) {
        // Await-all fast path. A completed event can never move time
        // here: completion happens at the then-current cycle and time
        // is monotone, so every observed doneTime is <= now and the
        // max over done events folds to `now` itself. That makes done
        // entries dead weight — compact the spawned list down to the
        // still-pending events (steady-state loops that await every
        // round stop rescanning and recopying the whole spawn history)
        // and subscribe to exactly those in one pass.
        size_t w = _spawned.compact(_eng.events);
        ++_frames.back().it;
        if (w == 0)
            return Step::Continue;
        _eng.whenAllDone(_spawned.data(), w, wakeup(now));
        return Step::Suspend;
    }
    std::vector<EventId> &ids = _eng.idScratch;
    ids.clear();
    bool all_done = true;
    Cycles max_t = now;
    for (ir::Value v : op->operands()) {
        EventId id = eval(v).asEvent();
        ids.push_back(id);
        uint64_t word = _eng.events.word(id);
        if (!EventStore::isDone(word))
            all_done = false;
        else
            max_t = std::max(max_t, word);
    }
    ++_frames.back().it;
    if (all_done) {
        now = std::max(now, max_t);
        return Step::Continue;
    }
    _eng.whenAllDone(ids.data(), ids.size(), wakeup(now));
    return Step::Suspend;
}

BlockExec::Step
BlockExec::execReturn(ir::Operation *op, Cycles &now)
{
    (void)now;
    if (_event) {
        for (ir::Value v : op->operands())
            _event->results.push_back(eval(v));
    }
    return Step::Finished;
}

BlockExec::Step
BlockExec::execExtern(ir::Operation *op, Cycles &now)
{
    OpCall call;
    call.op = op;
    call.proc = _proc;
    for (ir::Value v : op->operands())
        call.args.push_back(eval(v));
    OpFnResult r = _eng.opFns.invoke(op->strAttr("signature"), call);
    eq_assert(r.results.size() >= op->numResults(),
              "op function returned too few results for '",
              op->strAttr("signature"), "'");
    for (unsigned i = 0; i < op->numResults(); ++i) {
        // The dense environment uses None to mean "unbound"; a
        // default-constructed result would read back as a missing
        // binding later, so reject it here where the signature is known.
        eq_assert(!r.results[i].isNone(),
                  "op function for '", op->strAttr("signature"),
                  "' returned an empty SimValue for result ", i);
        bind(op->result(i), r.results[i]);
    }
    Cycles cycles = std::max(opCost(op), r.cycles);
    return advanceAfter(op, now, now, cycles);
}

} // namespace sim
} // namespace eq
