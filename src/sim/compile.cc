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
 *    *not* inlined — they are separate scopes, compiled eagerly with
 *    their parent and pinned on its Launch records, each with the
 *    site's capture mapping;
 *  - superinstruction groups open and close as records are emitted: a
 *    MOp::Fused head goes in before the first fusible record that
 *    follows a non-fusible one, and the next non-fusible record (or a
 *    Return) closes the group by setting the head's target. A lone
 *    fusible record or Return is a one-element group, so the executor
 *    defines each data op exactly once (CompiledExec::execFused). Loop
 *    targets are taken from the finished positions, so nothing is
 *    relocated afterwards: a loop's Begin and End are non-fusible, so
 *    a group never straddles one and every jump lands on a group head
 *    or a standalone record.
 *
 * The finished stream is then annotated in place (annotate()): index
 * operands that are same-scope constants fold into immediates
 * (kFlagImmIdx), and a whole-cell read whose result is used only later
 * in its own group, by consumers that treat a 1-element tensor and
 * the scalar it holds identically (cell/stream writes by construction,
 * extern calls only for whitelisted signatures such as the built-in
 * "mac"), binds the scalar instead (kFlagScalarize).
 *
 * A last pass (markFastForward()) marks the loops whose iterations the
 * executor may skip once their timing repeats (kFlagFastForward; see
 * CompiledExec::boundary) and records whether the program and
 * the bodies it launches keep data out of timing (ffClean).
 *
 * Shape sharing: before a launch body is lowered, its structural tokens
 * (op kinds, result and operand types, an attribute digest, and operand
 * wiring as pre-resolved (hops, slot) refs, nested bodies included) are
 * looked up among the shapes compiled so far; a hit, confirmed by
 * comparing the tokens and every attribute in full, reuses that
 * program. A systolic array's PE bodies differ only in what they
 * capture, so an 8x8 array's 64 bodies lower as 5 programs.
 *
 * Counting parity: the interpreter increments opsExecuted once per
 * dispatch; each record that corresponds to a dispatch carries
 * kFlagCounts, loop-End/Halt bookkeeping records do not, so both
 * backends report identical opsExecuted (goldens compare it).
 */

#include <algorithm>

#include "base/hash.hh"
#include "base/stringutil.hh"
#include "dialects/affine.hh"
#include "dialects/equeue.hh"
#include "sim/engine_impl.hh"

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

/** True when @p op carries a connection, the one optional operand
 *  group of each data-motion op's signature. */
bool
hasConnection(const ir::Operation *op)
{
    const ir::OpInfo *info = op->context().lookupOp(op->opId());
    if (!info)
        return false;
    const ir::OpSignature &sig = *info->signature;
    for (unsigned g = 0; g < sig.numOperandGroups; ++g)
        if (sig.operandGroups[g].count == ir::GroupCount::Optional)
            return ir::operandGroup(sig, *op, g).size() != 0;
    return false;
}

/** Fold the word @p v into @p h: FNV-1a a word (not a byte) at a
 *  time, folding the high half down so it reaches the bucket bits.
 *  Shape hashes are never persisted, so this need not match
 *  base/hash.hh. */
uint64_t
mix(uint64_t h, uint64_t v)
{
    h = (h ^ v) * kFnvPrime;
    return h ^ (h >> 32);
}

/** Fold one attribute into @p h. Only the kind and integer and string
 *  payloads are folded: the digest just spreads shapes over buckets,
 *  and a hit compares every attribute in full. */
uint64_t
hashAttr(uint64_t h, const ir::Attribute &a)
{
    h = mix(h, static_cast<uint64_t>(a.kind()));
    if (a.isInt())
        return mix(h, static_cast<uint64_t>(a.asInt()));
    if (a.isString())
        return fnv1aBytes(h, a.asString());
    return h;
}

bool
sameAttrs(ir::AttrView a, ir::AttrView b)
{
    if (a.size() != b.size())
        return false;
    for (const auto *x = a.begin(), *y = b.begin(); x != a.end(); ++x, ++y)
        if (x->first != y->first || x->second != y->second)
            return false;
    return true;
}

/** Whether every op in the trees of @p a and @p b, paired in walk
 *  order, has the same attributes. The trees must have equal shape
 *  tokens (so they pair up op for op). */
bool
sameTreeAttrs(ir::Block *a, ir::Block *b)
{
    for (auto x = a->begin(), y = b->begin(); x != a->end(); ++x, ++y) {
        if (!sameAttrs((*x)->attrs(), (*y)->attrs()))
            return false;
        for (unsigned r = 0; r < (*x)->numRegions(); ++r) {
            auto rb = (*y)->region(r).begin();
            for (ir::Block &nested : (*x)->region(r)) {
                if (!sameTreeAttrs(&nested, &*rb))
                    return false;
                ++rb;
            }
        }
    }
    return true;
}

/** Records a superinstruction group may hold: every
 *  position-independent record — compute, data motion (connection
 *  carrying or not), and event ops whose semantics never read or
 *  manipulate the pc. Control flow (loops, nested modules, Halt),
 *  elaboration (structure ops run once, cold), and linalg keep their
 *  own records. A Return also joins a group, but only as its last
 *  element (it terminates the scope). */
bool
isFusible(MOp code)
{
    switch (code) {
    case MOp::Constant:
    case MOp::AddI:
    case MOp::SubI:
    case MOp::MulI:
    case MOp::DivSI:
    case MOp::RemSI:
    case MOp::AddF:
    case MOp::MulF:
    case MOp::Load:
    case MOp::Store:
    case MOp::Read:
    case MOp::Write:
    case MOp::StreamRead:
    case MOp::StreamWrite:
    case MOp::Extern:
    case MOp::ControlStart:
    case MOp::ControlAnd:
    case MOp::ControlOr:
    case MOp::Launch:
    case MOp::Memcpy:
    case MOp::Await:
    case MOp::Return:
        return true;
    default:
        return false;
    }
}

/** First index-operand position of a foldable record, or 0. */
unsigned
indexOperandsBegin(const MicroOp &m)
{
    switch (m.code) {
    case MOp::Load:
        return 1;
    case MOp::Store:
        return 2;
    case MOp::Read:
        return m.hasConn() ? 2 : 1; // conn (if any) precedes indices
    case MOp::Write:
        return m.hasConn() ? 3 : 2;
    default:
        return 0;
    }
}

/** Mark every slot of the scope at @p depth hops that @p prog (a
 *  descendant launch body) or its own descendants reference — such
 *  slots escape the parent program and must keep their materialized
 *  values. A Launch record's operands include the values its site
 *  captures, so the args pool covers captures too. */
void
markDescendantUses(const CompiledBlock &prog, uint32_t depth,
                   std::vector<char> &used)
{
    for (const SlotRef &r : prog.args)
        if (r.hops == depth && r.slot < used.size())
            used[r.slot] = 1;
    for (const auto &site : prog.launches)
        markDescendantUses(*site.body, depth + 1, used);
}

class ModuleCompiler {
  public:
    ModuleCompiler(Simulator::Impl &eng, ir::Block *root)
        : _eng(eng), _root(root), _scope(eng.scopeFor(root))
    {
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
    }

    /** Append the scope's shape tokens to @p out: everything its
     *  program depends on except the attributes' full values. */
    void
    shape(std::vector<uint64_t> &out)
    {
        shapeBlock(_root, out);
    }

    std::unique_ptr<CompiledBlock>
    compile()
    {
        _prog = std::make_unique<CompiledBlock>();
        _prog->root = _root;
        _prog->scopeId = _scope.scopeId;
        _prog->numSlots = _scope.numSlots;
        // One record per op, plus a loop End or Halt per block (group
        // heads come on top; the slack is dropped below).
        _prog->code.reserve(_scope.numOps + _scope.numBlocks);
        _prog->args.reserve(_scope.numOperands);
        emitBlock(_root);
        emit(MOp::Halt, nullptr, /*counted=*/false);
        annotate();
        markFastForward();
        // Programs stay cached for a module's lifetime (and a server
        // holds many): drop the growth slack.
        _prog->code.shrink_to_fit();
        _prog->args.shrink_to_fit();
        _prog->immIdx.shrink_to_fit();
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

    /** Append a record, opening or closing a superinstruction group
     *  around it; operands/results are filled in by the caller. */
    uint32_t
    emit(MOp code, ir::Operation *op, bool counted)
    {
        std::vector<MicroOp> &stream = _prog->code;
        if (!isFusible(code)) {
            closeGroup();
        } else if (_group == kNoSlot) {
            // Elements count themselves (opsExecuted parity), so the
            // head itself is uncounted.
            _group = static_cast<uint32_t>(stream.size());
            MicroOp head;
            head.code = MOp::Fused;
            stream.push_back(head);
        }
        MicroOp m;
        m.code = code;
        m.op = op;
        if (counted)
            m.flags |= kFlagCounts;
        if (op) {
            m.costId = op->opId().raw();
            eq_assert(m.costId < _eng.costTable[0].size(),
                      "compile: op interned after cost-table build");
            m.label = &op->name();
        }
        stream.push_back(m);
        const uint32_t pc = static_cast<uint32_t>(stream.size() - 1);
        if (code == MOp::Return)
            closeGroup(); // nothing may follow it inside a group
        return pc;
    }

    /** End the open group (if any) after the last record emitted. */
    void
    closeGroup()
    {
        if (_group == kNoSlot)
            return;
        _prog->code[_group].target =
            static_cast<uint32_t>(_prog->code.size());
        _group = kNoSlot;
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
    void shapeBlock(ir::Block *block, std::vector<uint64_t> &out);
    /** Index folding and scalarization over the finished stream, in
     *  place, plus the program's deepest operand hop count. */
    void annotate();
    /** The program's fast-forward facts (ffClean, hasElab) and the
     *  kFlagFastForward marks of its eligible loops, in one pass. */
    void markFastForward();

    Simulator::Impl &_eng;
    ir::Block *_root;
    const Simulator::Impl::ValueScope &_scope;
    /** Scope ids of the static environment chain, innermost first
     *  (shapeBlock prepends a nested body's while it walks it). */
    std::vector<uint32_t> _chainScopes;
    std::unique_ptr<CompiledBlock> _prog;
    /** Head pc of the open superinstruction group, or kNoSlot. */
    uint32_t _group = kNoSlot;
};

void
ModuleCompiler::shapeBlock(ir::Block *block, std::vector<uint64_t> &out)
{
    out.push_back(block->numArguments());
    for (unsigned i = 0; i < block->numArguments(); ++i)
        out.push_back(reinterpret_cast<uintptr_t>(
            block->argument(i).type().impl()));
    out.push_back(block->size());
    for (ir::Operation *op : *block) {
        out.push_back(uint64_t(op->opId().raw()) |
                      uint64_t(op->numRegions()) << 32);
        out.push_back(op->numResults());
        for (unsigned i = 0; i < op->numResults(); ++i)
            out.push_back(reinterpret_cast<uintptr_t>(
                op->result(i).type().impl()));
        // Operand types too: the same (hops, slot) names values of
        // different types when bodies share a shape at different
        // nesting depths, and linalg costs read operand shapes.
        out.push_back(op->numOperands());
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            ir::Value v = op->operand(i);
            SlotRef r = refOf(v);
            out.push_back(uint64_t(r.hops) << 32 | r.slot);
            out.push_back(reinterpret_cast<uintptr_t>(v.type().impl()));
        }
        uint64_t attrs = mix(kFnvOffset, op->attrs().size());
        for (const auto &[name, a] : op->attrs())
            attrs = hashAttr(fnv1aBytes(attrs, name), a);
        out.push_back(attrs);
        // A nested launch body is its own scope: walk it against the
        // chain it will run in.
        const bool launch = op->opId() == _eng.idLaunch;
        for (unsigned r = 0; r < op->numRegions(); ++r) {
            out.push_back(op->region(r).numBlocks());
            for (ir::Block &nested : op->region(r)) {
                if (launch)
                    _chainScopes.insert(_chainScopes.begin(),
                                        _eng.scopeFor(&nested).scopeId);
                shapeBlock(&nested, out);
                if (launch)
                    _chainScopes.erase(_chainScopes.begin());
            }
        }
    }
}

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
    case MOp::StreamRead:
        m.imm = op->intAttr("elems");
        [[fallthrough]];
    case MOp::Read:
    case MOp::Write:
    case MOp::StreamWrite:
    case MOp::Memcpy:
        if (hasConnection(op))
            m.flags |= kFlagHasConn;
        break;
    case MOp::Launch: {
        equeue::LaunchOp launch(op);
        const unsigned ndeps = launch.numDeps();
        m.imm = static_cast<int64_t>(ndeps);
        // Compile the body now (its ancestors, including this scope,
        // are already numbered) and pin its program on the record so
        // issue skips the cache lookup. The captures are this site's:
        // body argument i takes captured operand i, resolved here.
        ir::Block &body = launch.body();
        ir::GroupBounds captured =
            ir::operandGroup(equeue::LaunchOp::opSignature, *op, 2);
        m.aux = static_cast<uint32_t>(_prog->launches.size());
        CompiledBlock::LaunchSite site{
            &_eng.programFor(&body),
            static_cast<uint32_t>(_prog->captures.size()), captured.size()};
        for (unsigned i = 0; i < site.numCaptures; ++i)
            _prog->captures.push_back(CompiledBlock::Capture{
                refOf(op->operand(captured.begin + i)),
                body.argument(i).impl()->interpSlot});
        _prog->launches.push_back(site);
        break;
    }
    case MOp::Extern: {
        m.aux = static_cast<uint32_t>(_prog->resultPool.size());
        m.imm = op->numResults();
        for (unsigned i = 0; i < op->numResults(); ++i)
            _prog->resultPool.push_back(slotOf(op->result(i)));
        m.label = &op->strAttr("signature");
        m.fn = _eng.opFns.find(*m.label);
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

void
ModuleCompiler::annotate()
{
    CompiledBlock &p = *_prog;
    const std::vector<MicroOp> &code = p.code;
    const uint32_t n = p.numSlots;
    for (const SlotRef &r : p.args)
        p.maxHops = std::max(p.maxHops, r.hops);

    // Per-slot constants (consts index, or -1) and use sites, the uses
    // of slot s being useSites[useBegin[s], useBegin[s + 1]) in one
    // array (counted, then placed) rather than a vector per slot.
    struct UseSite {
        uint32_t pc;  ///< record index of the user
        uint32_t rel; ///< operand position within that record
    };
    std::vector<int64_t> constOf(n, -1);
    std::vector<uint32_t> useBegin(n + 1, 0);
    auto local = [&](const MicroOp &m, uint32_t a) -> const SlotRef * {
        const SlotRef &r = p.args[m.argsBegin + a];
        return r.hops == 0 && r.slot < n ? &r : nullptr;
    };
    for (const MicroOp &m : code) {
        if (m.code == MOp::Constant && m.result != kNoSlot)
            constOf[m.result] = static_cast<int64_t>(m.aux);
        for (uint32_t a = 0; a < m.nargs; ++a)
            if (const SlotRef *r = local(m, a))
                ++useBegin[r->slot + 1];
    }
    for (uint32_t i = 0; i < n; ++i)
        useBegin[i + 1] += useBegin[i];
    std::vector<UseSite> useSites(useBegin[n]);
    std::vector<uint32_t> next(useBegin.begin(), useBegin.end() - 1);
    for (uint32_t pc = 0; pc < code.size(); ++pc)
        for (uint32_t a = 0; a < code[pc].nargs; ++a)
            if (const SlotRef *r = local(code[pc], a))
                useSites[next[r->slot]++] = UseSite{pc, a};
    // Slots a descendant body reads escape this program. This scope's
    // own captures are operands of its Launch records, which no
    // scalarized read may feed anyway.
    std::vector<char> escapes(n, 0);
    for (const auto &site : p.launches)
        markDescendantUses(*site.body, 1, escapes);

    // Fold all-constant index operands into the immediate pool (a
    // record with kFlagImmIdx never reads its index slots).
    auto foldIndices = [&](MicroOp &m) {
        const unsigned first = indexOperandsBegin(m);
        if (first == 0 || m.nargs <= first || m.nargs - first > 16)
            return;
        const unsigned nidx = m.nargs - first;
        int64_t vals[16];
        for (unsigned i = 0; i < nidx; ++i) {
            const SlotRef &r = p.args[m.argsBegin + first + i];
            const int64_t c = r.hops == 0 && r.slot < n ? constOf[r.slot]
                                                          : -1;
            if (c < 0 || !p.consts[static_cast<size_t>(c)].isInt())
                return;
            vals[i] = p.consts[static_cast<size_t>(c)].asInt();
        }
        m.immBegin = static_cast<uint32_t>(p.immIdx.size());
        m.flags |= kFlagImmIdx;
        p.immIdx.insert(p.immIdx.end(), vals, vals + nidx);
    };
    // May the whole-cell read at @p pc (result @p slot) skip tensor
    // materialization? Every use must come later inside [pc+1, end)
    // and treat a 1-element tensor and its scalar identically.
    auto mayScalarize = [&](uint32_t pc, uint32_t slot, uint32_t end) {
        if (slot >= n || escapes[slot])
            return false;
        for (uint32_t k = useBegin[slot]; k < useBegin[slot + 1]; ++k) {
            const UseSite &u = useSites[k];
            if (u.pc <= pc || u.pc >= end)
                return false;
            const MicroOp &user = code[u.pc];
            switch (user.code) {
            case MOp::Write:
                // Only the value operand of a whole-cell write.
                if (user.hasConn() || user.nargs != 2 || u.rel != 0)
                    return false;
                break;
            case MOp::StreamWrite:
                if (u.rel != 0)
                    return false;
                break;
            case MOp::Extern:
                // Signatures proven to treat the two alike (see
                // scalarOf in opfunctions.cc); user-registered ones may
                // distinguish them.
                if (*user.label != "mac")
                    return false;
                break;
            default:
                return false;
            }
        }
        return true;
    };

    uint32_t groupEnd = 0;
    for (uint32_t pc = 0; pc < code.size(); ++pc) {
        MicroOp &m = p.code[pc];
        if (m.code == MOp::Fused) {
            groupEnd = m.target;
            continue;
        }
        foldIndices(m);
        if (m.code == MOp::Read && !m.hasConn() && m.nargs == 1 &&
            m.result != kNoSlot && mayScalarize(pc, m.result, groupEnd))
            m.flags |= kFlagScalarize;
    }
}

void
ModuleCompiler::markFastForward()
{
    CompiledBlock &p = *_prog;
    const uint32_t n = p.numSlots;
    // Slots whose value cannot depend on data: constants, loop
    // induction variables and integer arithmetic over them. Anything
    // else (reads, loads, streams, externs, launch results, captured
    // or outer values) may carry data.
    std::vector<char> known(n, 0);
    auto isKnown = [&](const MicroOp &m, uint32_t a) {
        const SlotRef &r = p.args[m.argsBegin + a];
        return r.hops == 0 && r.slot < n && known[r.slot];
    };
    auto setKnown = [&](uint32_t slot, bool v) {
        if (slot < n)
            known[slot] = v;
    };
    bool clean = true;
    // Records a skipped iteration could not repeat exactly (structure
    // ops, nested modules, uninterpretable ops, launches of bodies
    // holding them), counted up to each pc. An alloc is not one: a
    // buffer has no timing state and no report field, and the one an
    // iteration binds goes out of scope with it.
    std::vector<uint32_t> barriers(p.code.size() + 1, 0);
    for (uint32_t pc = 0; pc < p.code.size(); ++pc) {
        const MicroOp &m = p.code[pc];
        bool barrier = false;
        switch (m.code) {
        case MOp::Constant:
            setKnown(m.result, true);
            break;
        case MOp::ForBegin:
            setKnown(p.forLoops[m.aux].ivSlot, true);
            break;
        case MOp::ParBegin:
            for (uint32_t slot : p.parLoops[m.aux].ivSlots)
                setKnown(slot, true);
            break;
        case MOp::AddI:
        case MOp::SubI:
        case MOp::MulI:
        case MOp::DivSI:
        case MOp::RemSI:
            setKnown(m.result, isKnown(m, 0) && isKnown(m, 1));
            break;
        case MOp::Load:
        case MOp::Store:
        case MOp::Read:
        case MOp::Write:
            if (!m.immIdx())
                for (uint32_t a = indexOperandsBegin(m); a < m.nargs; ++a)
                    clean = clean && isKnown(m, a);
            break;
        case MOp::Extern:
            clean = clean && OpFunctionRegistry::isBuiltin(*m.label);
            break;
        case MOp::Launch: {
            const CompiledBlock &body = *p.launches[m.aux].body;
            clean = clean && body.ffClean;
            barrier = body.hasElab;
            break;
        }
        case MOp::CreateProc:
        case MOp::CreateDma:
        case MOp::CreateMem:
        case MOp::CreateStream:
        case MOp::CreateConnection:
        case MOp::CreateComp:
        case MOp::GetComp:
        case MOp::NestedModule:
        case MOp::Bad:
            barrier = true;
            break;
        default:
            break;
        }
        barriers[pc + 1] = barriers[pc] + barrier;
    }
    p.ffClean = clean;
    p.hasElab = barriers.back() != 0;
    for (uint32_t pc = 0; pc < p.code.size(); ++pc) {
        MicroOp &m = p.code[pc];
        if (m.code != MOp::ForBegin)
            continue;
        const uint32_t end = m.target - 1; // the loop's ForEnd
        if (barriers[end] == barriers[pc + 1] &&
            !affine::ForOp(m.op).inductionVar().hasUses()) {
            m.flags |= kFlagFastForward;
            p.code[end].flags |= kFlagFastForward;
        }
    }
}

} // namespace

const CompiledBlock &
Simulator::Impl::programFor(ir::Block *root)
{
    auto it = programs.find(root);
    if (it != programs.end())
        return *it->second;
    ModuleCompiler compiler(*this, root);
    ir::Operation *owner = root->parentOp();
    const bool body = owner && owner->block() && owner->opId() == idLaunch;
    uint64_t hash = 0;
    if (body) {
        shapeScratch.clear();
        compiler.shape(shapeScratch);
        hash = kFnvOffset;
        for (uint64_t t : shapeScratch)
            hash = mix(hash, t);
        auto [lo, hi] = shapes.equal_range(hash);
        for (; lo != hi; ++lo) {
            const Shape &s = lo->second;
            if (s.tokens == shapeScratch &&
                sameTreeAttrs(s.prog->root, root)) {
                programs.emplace(root, s.prog);
                return *s.prog;
            }
        }
    }
    // Compiling a scope compiles its launch bodies first, and their
    // lookups reuse the token buffer: keep this shape's tokens now.
    std::vector<uint64_t> tokens;
    if (body)
        tokens = shapeScratch;
    // Lowering compiles launch bodies first, so the Launch records pin
    // finished children.
    programStore.push_back(compiler.compile());
    const CompiledBlock *prog = programStore.back().get();
    programs.emplace(root, prog);
    if (body)
        shapes.emplace(hash, Shape{std::move(tokens), prog});
    return *prog;
}

PrecompileStats
Simulator::precompile(ir::Operation *module)
{
    eq_assert(module && module->name() == "builtin.module",
              "precompile expects a builtin.module");
    Impl &impl = *_impl;
    // From-scratch semantics: drop every cached scope and program so
    // repeated calls measure (and re-do) the full lowering. The
    // dispatch tables stay, as they do for a Session's new module.
    impl.dropNumbering();
    impl.prepareDispatchTables(module->context());
    // Launch bodies compile eagerly with the top level; each shared
    // program counts once, and group heads are not micro-ops.
    impl.programFor(&module->region(0).front());
    PrecompileStats stats;
    for (const auto &prog : impl.programStore) {
        for (const MicroOp &m : prog->code)
            stats.microOps += m.code != MOp::Fused;
        ++stats.programs;
    }
    return stats;
}

} // namespace sim
} // namespace eq
