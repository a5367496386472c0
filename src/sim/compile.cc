/**
 * @file
 * ModuleCompiler: lowers one interpretation scope (the module top
 * level or a launch body) into the dense micro-op stream described in
 * sim/compile.hh.
 *
 * The lowering is a single walk over the scope's inline-interpreted
 * block tree — exactly the tree the value-numbering pass walks — that
 * emits one MicroOp per interpreter dispatch:
 *
 *  - every operand is resolved to a (hops, slot) SlotRef against the
 *    static environment chain (this scope, then each enclosing launch
 *    scope), every result to a local slot;
 *  - the op's dense id is kept in the record, so its per-class cost is
 *    one indexed load from the cost table;
 *  - attribute-dependent behavior is folded out: loop bounds, constant
 *    values, stream element counts, connection presence, and resolved
 *    component names become record fields or aux-pool entries;
 *  - structured control flow becomes explicit pc targets: affine.for /
 *    affine.parallel lower to Begin/End records that jump, nested
 *    builtin.modules inline (followed by a Halt, matching the
 *    interpreter's end-of-module semantics), and launch bodies are
 *    *not* inlined — they are separate scopes, compiled (and fused)
 *    eagerly with their parent and pinned on its Launch records.
 *
 * Counting parity: the interpreter increments opsExecuted once per
 * dispatch; each record that corresponds to a dispatch carries
 * kFlagCounts, loop-End/Halt bookkeeping records do not, so both
 * backends report identical opsExecuted (goldens compare it).
 */

#include "dialects/affine.hh"
#include "base/stringutil.hh"
#include "dialects/equeue.hh"
#include "sim/engine_impl.hh"
#include "sim/fuse.hh"

namespace eq {
namespace sim {

namespace {

/** The scope root owning @p b: walk out of inline regions (loop
 *  bodies, nested modules) until hitting a launch body or the
 *  simulated tree's top block. */
ir::Block *
scopeRootOf(ir::Block *b, ir::OpId launch_id)
{
    for (;;) {
        ir::Operation *p = b->parentOp();
        if (!p || !p->block() || p->opId() == launch_id)
            return b;
        b = p->block();
    }
}

class ModuleCompiler {
  public:
    ModuleCompiler(Simulator::Impl &eng, ir::Block *root)
        : _eng(eng), _prog(std::make_unique<CompiledBlock>())
    {
        const auto &vs = eng.scopeFor(root);
        _prog->root = root;
        _prog->scopeId = vs.scopeId;
        _prog->numSlots = vs.numSlots;
        // Static environment chain: this scope, then each enclosing
        // launch's scope (the runtime env chain mirrors it: a launch
        // body's parent env is its creator's).
        ir::Block *b = root;
        for (;;) {
            _chainScopes.push_back(_eng.scopeFor(b).scopeId);
            ir::Operation *owner = b->parentOp();
            if (!owner || !owner->block())
                break; // top of the simulated tree
            b = scopeRootOf(owner->block(), _eng.idLaunch);
        }
        _root = root;
    }

    std::unique_ptr<CompiledBlock>
    compile()
    {
        // If this scope is a launch body, pre-resolve its captured
        // values: creator-relative source slot -> body argument slot
        // (issue then copies slots instead of walking use chains).
        ir::Operation *owner = _root->parentOp();
        if (owner && owner->block() && owner->opId() == _eng.idLaunch) {
            equeue::LaunchOp launch(owner);
            auto captured = launch.captured();
            for (size_t i = 0; i < captured.size(); ++i) {
                SlotRef r = refOf(captured[i]);
                eq_assert(r.hops >= 1,
                          "captured value resolved into the body scope");
                _prog->captures.push_back(CompiledBlock::Capture{
                    SlotRef{r.slot, r.hops - 1},
                    slotOf(_root->argument(static_cast<unsigned>(i)))});
            }
        }
        emitBlock(_root);
        emit(MOp::Halt, nullptr, /*counted=*/false);
        return std::move(_prog);
    }

  private:
    /** Pre-resolve @p v against the static environment chain. */
    SlotRef
    refOf(ir::Value v) const
    {
        const ir::ValueImpl *impl = v.impl();
        for (uint32_t i = 0; i < _chainScopes.size(); ++i)
            if (_chainScopes[i] == impl->interpScope)
                return SlotRef{impl->interpSlot, i};
        eq_fatal("compile: operand defined outside every enclosing "
                 "scope (op '",
                 v.definingOp() ? v.definingOp()->name() : "blockarg",
                 "')");
    }

    /** Local result/induction slot (results are always scope-local). */
    uint32_t
    slotOf(ir::Value v) const
    {
        const ir::ValueImpl *impl = v.impl();
        eq_assert(impl->interpScope == _chainScopes[0],
                  "compile: result numbered outside its own scope");
        return impl->interpSlot;
    }

    /** Append a record; operands/results are filled in by the caller. */
    uint32_t
    emit(MOp code, ir::Operation *op, bool counted)
    {
        MicroOp m;
        m.code = code;
        m.op = op;
        if (counted)
            m.flags |= kFlagCounts;
        if (op) {
            m.costId = op->opId().raw();
            eq_assert(m.costId < _eng.costTable[0].size(),
                      "compile: op interned after cost-table build");
        }
        _prog->code.push_back(std::move(m));
        return static_cast<uint32_t>(_prog->code.size() - 1);
    }

    /** Copy all of @p op's operands into the pooled args. */
    void
    addArgs(uint32_t pc, ir::Operation *op)
    {
        MicroOp &m = _prog->code[pc];
        m.argsBegin = static_cast<uint32_t>(_prog->args.size());
        m.nargs = static_cast<uint16_t>(op->numOperands());
        for (unsigned i = 0; i < op->numOperands(); ++i)
            _prog->args.push_back(refOf(op->operand(i)));
    }

    void
    setResult(uint32_t pc, ir::Operation *op)
    {
        if (op->numResults() > 0)
            _prog->code[pc].result = slotOf(op->result(0));
    }

    void emitOp(ir::Operation *op, MOp code);
    void emitBlock(ir::Block *block);

    Simulator::Impl &_eng;
    ir::Block *_root = nullptr;
    std::vector<uint32_t> _chainScopes;
    std::unique_ptr<CompiledBlock> _prog;
};

void
ModuleCompiler::emitOp(ir::Operation *op, MOp code)
{
    switch (code) {
    case MOp::ForBegin: {
        affine::ForOp loop(op);
        uint32_t aux = static_cast<uint32_t>(_prog->forLoops.size());
        _prog->forLoops.push_back(CompiledBlock::ForLoopInfo{
            loop.lb(), loop.ub(), loop.step(),
            slotOf(loop.inductionVar())});
        uint32_t begin = emit(MOp::ForBegin, op, true);
        _prog->code[begin].aux = aux;
        emitBlock(&loop.body());
        uint32_t end = emit(MOp::ForEnd, op, false);
        _prog->code[end].aux = aux;
        _prog->code[end].target = begin + 1;
        _prog->code[begin].target = end + 1;
        return;
    }
    case MOp::ParBegin: {
        affine::ParallelOp loop(op);
        uint32_t aux = static_cast<uint32_t>(_prog->parLoops.size());
        CompiledBlock::ParLoopInfo info;
        info.lbs = loop.lbs();
        info.ubs = loop.ubs();
        info.steps = loop.steps();
        for (size_t i = 0; i < info.lbs.size(); ++i)
            info.ivSlots.push_back(slotOf(
                loop.body().argument(static_cast<unsigned>(i))));
        _prog->parLoops.push_back(std::move(info));
        uint32_t begin = emit(MOp::ParBegin, op, true);
        _prog->code[begin].aux = aux;
        emitBlock(&loop.body());
        uint32_t end = emit(MOp::ParEnd, op, false);
        _prog->code[end].aux = aux;
        _prog->code[end].target = begin + 1;
        _prog->code[begin].target = end + 1;
        return;
    }
    case MOp::NestedModule: {
        // Inline the nested body (same numbering scope). Matching the
        // interpreter, running off the nested body's end finishes the
        // whole scope, so a Halt follows; ops after the nested module
        // are emitted but unreachable, exactly as they are
        // uninterpretable today.
        emit(MOp::NestedModule, op, true);
        emitBlock(&op->region(0).front());
        emit(MOp::Halt, op, false);
        return;
    }
    default:
        break;
    }

    uint32_t pc = emit(code, op, true);
    addArgs(pc, op);
    setResult(pc, op);
    MicroOp &m = _prog->code[pc];

    switch (code) {
    case MOp::Constant: {
        ir::Attribute v = op->attr("value");
        m.aux = static_cast<uint32_t>(_prog->consts.size());
        _prog->consts.push_back(v.kind() == ir::AttrKind::Float
                                    ? SimValue::ofFloat(v.asFloat())
                                    : SimValue::ofInt(v.asInt()));
        break;
    }
    case MOp::CreateComp: {
        if (op->opId() == _eng.idAddComp)
            m.flags |= kFlagIsAddComp;
        // The subcomponent names (the verifier pins one per operand),
        // parsed once here: aux -> the first.
        m.aux = static_cast<uint32_t>(_prog->strings.size());
        for (std::string &name : split(op->strAttr("names"), ' '))
            _prog->strings.push_back(std::move(name));
        break;
    }
    case MOp::GetComp: {
        m.aux = static_cast<uint32_t>(_prog->strings.size());
        _prog->strings.push_back(
            op->opId() == _eng.idExtractComp
                ? equeue::ExtractCompOp(op).resolvedName()
                : op->strAttr("name"));
        break;
    }
    case MOp::Alloc:
        if (op->opId() == _eng.idEqueueAlloc)
            m.flags |= kFlagEqueueAlloc;
        break;
    case MOp::Read:
        if (equeue::ReadOp(op).hasConn())
            m.flags |= kFlagHasConn;
        break;
    case MOp::Write:
        if (equeue::WriteOp(op).hasConn())
            m.flags |= kFlagHasConn;
        break;
    case MOp::StreamRead:
        if (equeue::StreamReadOp(op).hasConn())
            m.flags |= kFlagHasConn;
        m.imm = op->intAttr("elems");
        break;
    case MOp::StreamWrite:
        if (equeue::StreamWriteOp(op).hasConn())
            m.flags |= kFlagHasConn;
        break;
    case MOp::Launch: {
        m.imm = static_cast<int64_t>(equeue::LaunchOp(op).numDeps());
        // Compile the body now (its ancestors, including this scope,
        // are already numbered) and pin its program on the record so
        // issue skips the cache lookup.
        m.aux = static_cast<uint32_t>(_prog->childProgs.size());
        const CompiledBlock &child =
            _eng.programFor(&equeue::LaunchOp(op).body());
        _prog->childProgs.push_back(&child);
        break;
    }
    case MOp::Memcpy:
        if (equeue::MemcpyOp(op).hasConn())
            m.flags |= kFlagHasConn;
        break;
    case MOp::Extern: {
        m.aux = static_cast<uint32_t>(_prog->resultPool.size());
        for (unsigned i = 0; i < op->numResults(); ++i)
            _prog->resultPool.push_back(slotOf(op->result(i)));
        break;
    }
    default:
        break;
    }
}

void
ModuleCompiler::emitBlock(ir::Block *block)
{
    const auto &opcodes = _eng.opcodes;
    for (ir::Operation *op : *block) {
        const uint32_t raw = op->opId().raw();
        MOp code = raw < opcodes.size() ? opcodes[raw] : MOp::Bad;
        emitOp(op, code);
    }
}

} // namespace

const CompiledBlock &
Simulator::Impl::programFor(ir::Block *root)
{
    auto it = programs.find(root);
    if (it != programs.end())
        return *it->second;
    // Lowering compiles (and so fuses) launch bodies first, so the
    // Launch records pin already-fused children; the lowered stream is
    // then fused in place and never cached unfused.
    auto prog = optimizeProgram(ModuleCompiler(*this, root).compile(),
                                opFns);
    return *programs.emplace(root, std::move(prog)).first->second;
}

size_t
Simulator::precompile(ir::Operation *module)
{
    eq_assert(module && module->name() == "builtin.module",
              "precompile expects a builtin.module");
    Impl &impl = *_impl;
    // From-scratch semantics: drop every cached scope and program so
    // repeated calls measure (and re-do) the full lowering.
    impl.valueScopes.clear();
    impl.programs.clear();
    impl.buildDispatchTable(module->context());
    // Count lowered micro-ops: a fused record stands for its elements.
    auto count = [&](const CompiledBlock &prog) {
        return prog.code.size() + prog.fusedElems.size() -
               prog.fusedGroups.size();
    };
    size_t ops = count(impl.programFor(&module->region(0).front()));
    module->walk([&](ir::Operation *op) {
        if (op->opId() == impl.idLaunch)
            ops += count(impl.programFor(&op->region(0).front()));
    });
    return ops;
}

} // namespace sim
} // namespace eq
