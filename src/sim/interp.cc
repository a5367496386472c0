/**
 * @file
 * Block interpretation: dense value-numbered SSA environments, the
 * resume/suspend execution loop, loop control flow, and construction of
 * the OpId-indexed dispatch and cost tables (from a table keyed by op
 * name, built once per process).
 *
 * Value numbering: each interpreted block tree (the module top level or
 * a launch body) is one *scope*. At first entry the tree is walked once
 * and every op result and block argument is assigned a dense slot
 * (ValueImpl::interpScope/interpSlot); the runtime environment is then
 * a plain vector indexed by slot, replacing per-value map lookups.
 * Launch regions are excluded — they are their own scopes, numbered
 * when first launched — but affine loop bodies and nested modules
 * execute inline and share the enclosing scope (loop iterations reuse
 * the same slots).
 */

#include "base/stringutil.hh"
#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "dialects/linalg.hh"
#include "dialects/memref.hh"
#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

// ---------------------------------------------------------------------------
// Value numbering

namespace {

/** Assign scope @p vs.scopeId's slots to every value in @p block's
 *  inline-interpreted tree, counting slots, ops, operands and blocks
 *  into @p vs. */
void
numberBlock(ir::Block *block, Simulator::Impl::ValueScope &vs,
            ir::OpId launch_id)
{
    ++vs.numBlocks;
    for (unsigned i = 0; i < block->numArguments(); ++i) {
        ir::ValueImpl *impl = block->argument(i).impl();
        impl->interpScope = vs.scopeId;
        impl->interpSlot = vs.numSlots++;
    }
    for (ir::Operation *op : *block) {
        ++vs.numOps;
        vs.numOperands += static_cast<uint32_t>(op->numOperands());
        for (unsigned r = 0; r < op->numResults(); ++r) {
            ir::ValueImpl *impl = op->result(r).impl();
            impl->interpScope = vs.scopeId;
            impl->interpSlot = vs.numSlots++;
        }
        if (op->opId() == launch_id)
            continue; // launch bodies are separate scopes
        for (unsigned r = 0; r < op->numRegions(); ++r)
            for (ir::Block &nested : op->region(r))
                numberBlock(&nested, vs, launch_id);
    }
}

} // namespace

const Simulator::Impl::ValueScope &
Simulator::Impl::scopeFor(ir::Block *root)
{
    auto it = valueScopes.find(root);
    if (it != valueScopes.end())
        return it->second;
    ValueScope vs{nextScopeId++, 0, 0, 0, 0};
    numberBlock(root, vs, idLaunch);
    return valueScopes.emplace(root, vs).first->second;
}

EnvPtr
Simulator::Impl::makeEnv(ir::Block *root, EnvPtr parent)
{
    const ValueScope &vs = scopeFor(root);
    return envPool.acquire(vs.scopeId, vs.numSlots, std::move(parent));
}

EnvPtr
EnvPool::acquire(uint32_t scope_id, uint32_t num_slots, EnvPtr parent)
{
    Env *raw = num_slots < _free.size() ? _free[num_slots] : nullptr;
    if (raw) {
        _free[num_slots] = raw->nextFree;
        raw->nextFree = nullptr;
    } else {
        raw = new Env();
        raw->pool = this;
    }
    // Free-listed by slot count, so this resize never reallocates on a
    // recycled env (capacity == num_slots) and default-constructs the
    // slots back to the unbound state.
    raw->scopeId = scope_id;
    raw->slots.resize(num_slots);
    raw->parent = std::move(parent);
    return EnvPtr(raw);
}

void
EnvPool::recycle(Env *e)
{
    // Drop the chain first: releasing our parent reference may recycle
    // the parent reentrantly, and no free-list reference is held yet
    // at that point. Pooled envs therefore never hold parent refs, so
    // draining the free list itself can never cascade back into it.
    e->parent.reset();
    const size_t key = e->slots.size();
    // Keep the slot vector's capacity but release held payloads
    // (tensors, buffers) now rather than at the next acquire.
    e->slots.clear();
    if (key >= _free.size())
        _free.resize(key + 1, nullptr);
    e->nextFree = _free[key];
    _free[key] = e;
}

void
EnvPool::clear()
{
    for (Env *head : _free) {
        while (Env *e = head) {
            head = e->nextFree;
            delete e;
        }
    }
    _free.clear();
    _free.shrink_to_fit();
}

// ---------------------------------------------------------------------------
// Dispatch table

namespace {

/** An op kind the engine executes by its exact name. */
struct NamedHandler {
    const char *name;
    BlockExec::Handler handler;
    MOp mop;
};

const NamedHandler kNamedHandlers[] = {
    // Structure (elaborate.cc).
    {equeue::CreateProcOp::opName, &BlockExec::execCreateProc,
     MOp::CreateProc},
    {equeue::CreateDmaOp::opName, &BlockExec::execCreateDma,
     MOp::CreateDma},
    {equeue::CreateMemOp::opName, &BlockExec::execCreateMem,
     MOp::CreateMem},
    {equeue::CreateStreamOp::opName, &BlockExec::execCreateStream,
     MOp::CreateStream},
    {equeue::CreateConnectionOp::opName, &BlockExec::execCreateConnection,
     MOp::CreateConnection},
    {equeue::CreateCompOp::opName, &BlockExec::execCreateOrAddComp,
     MOp::CreateComp},
    {equeue::AddCompOp::opName, &BlockExec::execCreateOrAddComp,
     MOp::CreateComp},
    {equeue::GetCompOp::opName, &BlockExec::execGetComp, MOp::GetComp},
    {equeue::ExtractCompOp::opName, &BlockExec::execGetComp, MOp::GetComp},
    {equeue::AllocOp::opName, &BlockExec::execAlloc, MOp::Alloc},
    {memref::AllocOp::opName, &BlockExec::execAlloc, MOp::Alloc},
    {equeue::DeallocOp::opName, &BlockExec::execDealloc, MOp::Dealloc},
    {memref::DeallocOp::opName, &BlockExec::execDealloc, MOp::Dealloc},

    // Control flow (this file).
    {affine::ForOp::opName, &BlockExec::execAffineFor, MOp::ForBegin},
    {affine::ParallelOp::opName, &BlockExec::execAffineParallel,
     MOp::ParBegin},
    {affine::YieldOp::opName, &BlockExec::execAffineYield, MOp::Yield},
    {"builtin.module", &BlockExec::execNestedModule, MOp::NestedModule},

    // Compute, data motion, events (handlers.cc).
    {arith::ConstantOp::opName, &BlockExec::execArithConstant,
     MOp::Constant},
    {arith::AddIOp::opName, &BlockExec::execAddI, MOp::AddI},
    {arith::SubIOp::opName, &BlockExec::execSubI, MOp::SubI},
    {arith::MulIOp::opName, &BlockExec::execMulI, MOp::MulI},
    {arith::DivSIOp::opName, &BlockExec::execDivSI, MOp::DivSI},
    {arith::RemSIOp::opName, &BlockExec::execRemSI, MOp::RemSI},
    {arith::AddFOp::opName, &BlockExec::execAddF, MOp::AddF},
    {arith::MulFOp::opName, &BlockExec::execMulF, MOp::MulF},
    {affine::LoadOp::opName, &BlockExec::execAffineLoadStore, MOp::Load},
    {affine::StoreOp::opName, &BlockExec::execAffineLoadStore, MOp::Store},
    {linalg::ConvOp::opName, &BlockExec::execLinalg, MOp::LinalgConv},
    {linalg::FillOp::opName, &BlockExec::execLinalg, MOp::LinalgFill},
    {linalg::MatmulOp::opName, &BlockExec::execLinalg, MOp::LinalgMatmul},
    {equeue::ReadOp::opName, &BlockExec::execRead, MOp::Read},
    {equeue::WriteOp::opName, &BlockExec::execWrite, MOp::Write},
    {equeue::StreamReadOp::opName, &BlockExec::execStreamRead,
     MOp::StreamRead},
    {equeue::StreamWriteOp::opName, &BlockExec::execStreamWrite,
     MOp::StreamWrite},
    {equeue::ControlStartOp::opName, &BlockExec::execControlStart,
     MOp::ControlStart},
    {equeue::ControlAndOp::opName, &BlockExec::execControlAndOr,
     MOp::ControlAnd},
    {equeue::ControlOrOp::opName, &BlockExec::execControlAndOr,
     MOp::ControlOr},
    {equeue::LaunchOp::opName, &BlockExec::execLaunch, MOp::Launch},
    {equeue::MemcpyOp::opName, &BlockExec::execMemcpy, MOp::Memcpy},
    {equeue::AwaitOp::opName, &BlockExec::execAwait, MOp::Await},
    {equeue::ReturnOp::opName, &BlockExec::execReturn, MOp::Return},
    {equeue::ExternOp::opName, &BlockExec::execExtern, MOp::Extern},
};

} // namespace

OpEntry
computeOpEntry(std::string_view name)
{
    OpEntry e;
    for (const NamedHandler &h : kNamedHandlers) {
        if (name == h.name) {
            e.handler = h.handler;
            e.mop = h.mop;
            break;
        }
    }
    // Dialect-prefix fallbacks for names with no specific handler: any
    // other arith op reports a precise diagnostic (the compiled
    // backend's MOp::Bad names the op too); any other linalg op
    // executes with its analytic cost only.
    if (!e.handler) {
        if (startsWith(name, "arith.")) {
            e.handler = &BlockExec::execArithUnsupported;
        } else if (startsWith(name, "linalg.")) {
            e.handler = &BlockExec::execLinalg;
            e.mop = MOp::LinalgOther;
        }
    }
    for (unsigned cls = 0; cls < kNumCostClasses; ++cls)
        e.cost[cls] =
            CostModel::staticOpCycles(static_cast<CostClass>(cls), name);
    return e;
}

OpEntry
lookupOpEntry(std::string_view name)
{
    // Immutable once built; the function-local static makes the one
    // build safe when concurrent workers get here first together.
    struct Table {
        /** Stable storage for the keys' text. */
        std::vector<std::unique_ptr<std::string>> names;
        std::unordered_map<std::string_view, OpEntry> entries;
    };
    static const Table table = [] {
        Table t;
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        std::vector<std::string> names = ctx.registeredOpNames();
        for (const NamedHandler &h : kNamedHandlers)
            names.push_back(h.name);
        for (std::string &name : names) {
            if (t.entries.count(name))
                continue;
            t.names.push_back(std::make_unique<std::string>(std::move(name)));
            const std::string &key = *t.names.back();
            t.entries.emplace(key, computeOpEntry(key));
        }
        return t;
    }();
    auto it = table.entries.find(name);
    return it != table.entries.end() ? it->second : computeOpEntry(name);
}

void
Simulator::Impl::prepareDispatchTables(ir::Context &ctx)
{
    // Built once per context: rebuilt only for another context
    // (identified by its serial, which unlike its address is never
    // reused) or for names interned since, which the tables do not
    // cover yet.
    if (dispatchSerial == ctx.serial() &&
        handlers.size() == ctx.numInternedOpNames())
        return;
    dispatchSerial = ctx.serial();
    // Ids the interpreter's handlers compare against. Resolved before
    // the table is sized, so any name these intern is covered by it.
    idAffineFor = affine::ForOp::id(ctx);
    idAffineParallel = affine::ParallelOp::id(ctx);
    idAffineStore = affine::StoreOp::id(ctx);
    idControlAnd = equeue::ControlAndOp::id(ctx);
    idAddComp = equeue::AddCompOp::id(ctx);
    idExtractComp = equeue::ExtractCompOp::id(ctx);
    idEqueueAlloc = equeue::AllocOp::id(ctx);
    idExtern = equeue::ExternOp::id(ctx);
    idLaunch = equeue::LaunchOp::id(ctx);
    idConv = linalg::ConvOp::id(ctx);
    idFill = linalg::FillOp::id(ctx);
    idMatmul = linalg::MatmulOp::id(ctx);

    // The compiled backend's dense opcode per interned op kind is
    // built alongside the handlers (the ModuleCompiler pre-lowers each
    // op's OpId through it exactly once, at compile time), and the
    // (class, op) cost table with them.
    const size_t n = ctx.numInternedOpNames();
    handlers.resize(n);
    opcodes.resize(n);
    for (auto &row : costTable)
        row.resize(n);
    for (uint32_t raw = 0; raw < n; ++raw) {
        const OpEntry e = lookupOpEntry(ctx.opName(ir::OpId(raw)));
        handlers[raw] = e.handler;
        opcodes[raw] = e.mop;
        for (unsigned cls = 0; cls < kNumCostClasses; ++cls)
            costTable[cls][raw] = e.cost[cls];
    }
}

// ---------------------------------------------------------------------------
// BlockExec: the interpretation loop

void
BlockExec::resume(Cycles t)
{
    eq_assert(!_finished, "resuming finished block");
    Cycles now = t;
    _eng.now = std::max(_eng.now, t);
    while (true) {
        if (_frames.empty()) {
            finish(now);
            return;
        }
        Frame &f = _frames.back();
        if (f.it == f.block->end()) {
            Step s = handleLoopEnd(now);
            if (s == Step::Finished) {
                finish(now);
                return;
            }
            continue;
        }
        ir::Operation *op = *f.it;
        ++_eng.dispatchCount;
        _eng.countOp();
        Step s = dispatch(op, now);
        if (s == Step::Suspend)
            return;
        if (s == Step::Finished) {
            finish(now);
            return;
        }
    }
}

BlockExec::Step
BlockExec::dispatch(ir::Operation *op, Cycles &now)
{
    const uint32_t raw = op->opId().raw();
    const auto &table = _eng.handlers;
    if (raw < table.size()) {
        if (Handler h = table[raw])
            return (this->*h)(op, now);
    }
    simulationFailed(detail::formatMessage(
        "simulation engine cannot interpret op '", op->name(), "'"));
}

/** Loop bookkeeping when the instruction pointer hits the block end. */
BlockExec::Step
BlockExec::handleLoopEnd(Cycles &now)
{
    (void)now;
    Frame &f = _frames.back();
    if (!f.loop) {
        // Top frame of the launch body / module: we are done.
        return Step::Finished;
    }
    if (f.loop->opId() == _eng.idAffineFor) {
        affine::ForOp loop(f.loop);
        f.iv += loop.step();
        if (f.iv < loop.ub()) {
            bind(loop.inductionVar(), SimValue::ofInt(f.iv));
            f.it = f.block->begin();
            return Step::Continue;
        }
    } else if (f.loop->opId() == _eng.idAffineParallel) {
        affine::ParallelOp loop(f.loop);
        auto ubs = loop.ubs();
        auto steps = loop.steps();
        // Lexicographic increment of the induction vector.
        int dim = static_cast<int>(f.ivs.size()) - 1;
        while (dim >= 0) {
            f.ivs[dim] += steps[dim];
            if (f.ivs[dim] < ubs[dim])
                break;
            f.ivs[dim] = loop.lbs()[dim];
            --dim;
        }
        if (dim >= 0) {
            for (size_t i = 0; i < f.ivs.size(); ++i)
                bind(f.block->argument(static_cast<unsigned>(i)),
                     SimValue::ofInt(f.ivs[i]));
            f.it = f.block->begin();
            return Step::Continue;
        }
    }
    // Loop exhausted: pop the frame and advance past the loop op in the
    // parent frame.
    _frames.pop_back();
    eq_assert(!_frames.empty(), "loop frame without parent");
    ++_frames.back().it;
    return Step::Continue;
}

void
BlockExec::finish(Cycles t)
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
    _eng.freeBlockExecs.push_back(this);
}

// ---------------------------------------------------------------------------
// Control-flow handlers

BlockExec::Step
BlockExec::execAffineFor(ir::Operation *op, Cycles &now)
{
    (void)now;
    affine::ForOp loop(op);
    if (loop.lb() >= loop.ub())
        return advanceFree();
    bind(loop.inductionVar(), SimValue::ofInt(loop.lb()));
    _frames.push_back(
        Frame{&loop.body(), loop.body().begin(), op, loop.lb(), {}});
    return Step::Continue;
}

BlockExec::Step
BlockExec::execAffineParallel(ir::Operation *op, Cycles &now)
{
    (void)now;
    affine::ParallelOp loop(op);
    auto lbs = loop.lbs();
    auto ubs = loop.ubs();
    bool empty = lbs.empty();
    for (size_t i = 0; i < lbs.size(); ++i)
        if (lbs[i] >= ubs[i])
            empty = true;
    if (empty)
        return advanceFree();
    for (size_t i = 0; i < lbs.size(); ++i)
        bind(loop.body().argument(static_cast<unsigned>(i)),
             SimValue::ofInt(lbs[i]));
    _frames.push_back(
        Frame{&loop.body(), loop.body().begin(), op, 0, lbs});
    return Step::Continue;
}

BlockExec::Step
BlockExec::execAffineYield(ir::Operation *op, Cycles &now)
{
    // Loop back-edge: charge the cost, then fall off the block end.
    return advanceAfter(op, now, now, opCost(op));
}

BlockExec::Step
BlockExec::execNestedModule(ir::Operation *op, Cycles &now)
{
    (void)now;
    // Nested module: execute its body inline (same numbering scope).
    _frames.push_back(Frame{&op->region(0).front(),
                            op->region(0).front().begin(), nullptr, 0,
                            {}});
    return Step::Continue;
}

} // namespace sim
} // namespace eq
