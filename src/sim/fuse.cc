/**
 * @file
 * The superinstruction fusion pass (see fuse.hh for the contract).
 *
 * The pass is a single walk over a lowered CompiledBlock that
 *
 *  1. collapses every maximal run of adjacent fusible records (plus a
 *     closing Return) into one MOp::Fused record — a lone fusible
 *     record or Return becomes a one-element group, so the executor
 *     defines each data op exactly once (CompiledExec::execFused),
 *  2. folds constant index operands (slots defined by arith.constant in
 *     the same scope) into immediate offsets on load/store/read/write
 *     elements, and
 *  3. inside each run, proves which whole-cell reads may bind a scalar
 *     instead of materializing a 1-element tensor: the read's result
 *     must be used only later in the same run, and every consumer must
 *     treat "1-element tensor" and "the scalar it holds" identically
 *     (cell/stream writes do by construction; extern calls only for
 *     whitelisted signatures such as the built-in "mac").
 *
 * The rewritten stream is relocatable like the input: loop Begin/End
 * targets are remapped through an old-pc -> new-pc table. Branch
 * targets always land on run heads because every control record is
 * non-fusible, so a run can never straddle one. The rewrite happens in
 * place: the lowered program's pools are kept, only its record stream
 * is replaced, so no unfused copy outlives the pass.
 */

#include "sim/fuse.hh"

#include <algorithm>

namespace eq {
namespace sim {

namespace {

/** Records a superinstruction may absorb: every position-independent
 *  record — compute, data motion, and event ops whose semantics never
 *  read or manipulate the pc. Control flow (loops, nested modules,
 *  Halt), elaboration (structure ops run once, cold), and linalg
 *  keep their own records. Return is also absorbed, but only as a run
 *  terminator (handled by the run scanner, not here, since nothing may
 *  follow it in a group). */
bool
isFusible(const MicroOp &m)
{
    switch (m.code) {
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
    case MOp::StreamRead:
    case MOp::StreamWrite:
    case MOp::Extern:
    case MOp::ControlStart:
    case MOp::ControlAnd:
    case MOp::ControlOr:
    case MOp::Launch:
    case MOp::Memcpy:
    case MOp::Await:
        return true;
    case MOp::Read:
    case MOp::Write:
        // Connection-carrying variants fuse too: the fused element
        // carries the shifted operand layout (kFlagHasConn) and the
        // executor performs the channel acquire/transfer accounting
        // in-group, suspending mid-group on a stall exactly like any
        // other costed element.
        return true;
    default:
        return false;
    }
}

/** Extern signatures proven to treat a whole-cell read's 1-element
 *  tensor and the scalar it holds identically (see scalarOf in
 *  opfunctions.cc). User-registered signatures are conservatively
 *  excluded — they may distinguish the two. */
bool
scalarOkExtern(ir::Operation *op)
{
    return op && op->strAttr("signature") == "mac";
}

/** One use of a slot inside the program being optimized. */
struct UseSite {
    uint32_t pc;  ///< record index of the user
    uint32_t rel; ///< operand position within that record
};

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

class Fuser {
  public:
    Fuser(std::unique_ptr<CompiledBlock> prog,
          const OpFunctionRegistry &opFns)
        : _prog(std::move(prog)), _code(std::move(_prog->code)),
          _opFns(opFns)
    {
        _prog->code.clear();
        _prog->code.reserve(_code.size());
        _prog->fusedElems.reserve(_code.size());
        analyze();
    }

    std::unique_ptr<CompiledBlock>
    run()
    {
        const size_t n = _code.size();
        std::vector<uint32_t> oldToNew(n + 1, 0);
        size_t i = 0;
        while (i < n) {
            size_t j = i;
            while (j < n && isFusible(_code[j]))
                ++j;
            // A Return closes the group (it terminates the scope, so
            // nothing can follow it inside one).
            if (j < n && _code[j].code == MOp::Return)
                ++j;
            if (j == i) {
                // Control, linalg, and elaboration keep their record.
                oldToNew[i] = static_cast<uint32_t>(_prog->code.size());
                _prog->code.push_back(_code[i++]);
                continue;
            }
            for (size_t p = i; p < j; ++p)
                oldToNew[p] = static_cast<uint32_t>(_prog->code.size());
            emitGroup(i, j);
            i = j;
        }
        oldToNew[n] = static_cast<uint32_t>(_prog->code.size());
        // Programs stay cached for a module's lifetime (and a server
        // holds many): drop the growth slack.
        _prog->code.shrink_to_fit();
        _prog->fusedGroups.shrink_to_fit();
        _prog->fusedElems.shrink_to_fit();
        _prog->args.shrink_to_fit();
        _prog->immIdx.shrink_to_fit();

        // Relocate loop branch targets into the rewritten stream.
        for (MicroOp &m : _prog->code) {
            switch (m.code) {
            case MOp::ForBegin:
            case MOp::ForEnd:
            case MOp::ParBegin:
            case MOp::ParEnd:
                m.target = oldToNew[m.target];
                break;
            default:
                break;
            }
        }
        return std::move(_prog);
    }

  private:
    /** First index-operand position of a foldable record, or 0. */
    static unsigned
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

    /** Per-slot constant values and use sites of the input program. */
    void
    analyze()
    {
        const uint32_t n = _prog->numSlots;
        _constOf.assign(n, -1);
        _escapes.assign(n, 0);
        // Use sites grouped by slot in one array (counted, then
        // placed), rather than a vector per slot.
        _useBegin.assign(n + 1, 0);
        auto local = [&](const MicroOp &m, uint32_t a) -> const SlotRef * {
            const SlotRef &r = _prog->args[m.argsBegin + a];
            return r.hops == 0 && r.slot < n ? &r : nullptr;
        };
        for (const MicroOp &m : _code) {
            if (m.code == MOp::Constant && m.result != kNoSlot)
                _constOf[m.result] = static_cast<int64_t>(m.aux);
            for (uint32_t a = 0; a < m.nargs; ++a)
                if (const SlotRef *r = local(m, a))
                    ++_useBegin[r->slot + 1];
        }
        for (uint32_t i = 0; i < n; ++i)
            _useBegin[i + 1] += _useBegin[i];
        _useSites.resize(_useBegin[n]);
        std::vector<uint32_t> next(_useBegin.begin(), _useBegin.end() - 1);
        for (uint32_t pc = 0; pc < _code.size(); ++pc)
            for (uint32_t a = 0; a < _code[pc].nargs; ++a)
                if (const SlotRef *r = local(_code[pc], a))
                    _useSites[next[r->slot]++] = UseSite{pc, a};
        // This scope's own captures are operands of its Launch
        // records, which no scalarized read may feed anyway.
        for (const auto &site : _prog->launches)
            markDescendantUses(*site.body, 1, _escapes);
    }

    /** Is the operand a same-scope slot holding a known int constant? */
    bool
    constIntOperand(const SlotRef &r, int64_t *value) const
    {
        if (r.hops != 0 || r.slot >= _constOf.size())
            return false;
        int64_t c = _constOf[r.slot];
        if (c < 0)
            return false;
        const SimValue &v = _prog->consts[static_cast<size_t>(c)];
        if (!v.isInt())
            return false;
        *value = v.asInt();
        return true;
    }

    /** Fold all-constant index operands of @p m into the immediate
     *  pool: on success @p e gets kFlagImmIdx and its immBegin (an
     *  element with kFlagImmIdx never reads its index slots). */
    void
    foldIndices(const MicroOp &m, FusedElem &e)
    {
        unsigned first = indexOperandsBegin(m);
        if (first == 0 || m.nargs <= first)
            return;
        int64_t vals[16];
        unsigned nidx = m.nargs - first;
        if (nidx > 16)
            return;
        for (unsigned i = 0; i < nidx; ++i)
            if (!constIntOperand(_prog->args[m.argsBegin + first + i],
                                 &vals[i]))
                return;
        e.immBegin = static_cast<uint32_t>(_prog->immIdx.size());
        e.flags |= kFlagImmIdx;
        for (unsigned i = 0; i < nidx; ++i)
            _prog->immIdx.push_back(vals[i]);
    }

    /** May the whole-cell read at @p pc (result @p slot) skip tensor
     *  materialization? Every use must come later inside [pc+1, end)
     *  and treat a 1-element tensor and its scalar identically. */
    bool
    mayScalarize(uint32_t pc, uint32_t slot, uint32_t end) const
    {
        if (slot >= _escapes.size() || _escapes[slot])
            return false;
        for (uint32_t k = _useBegin[slot]; k < _useBegin[slot + 1]; ++k) {
            const UseSite &u = _useSites[k];
            if (u.pc <= pc || u.pc >= end)
                return false;
            const MicroOp &user = _code[u.pc];
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
                if (!scalarOkExtern(user.op))
                    return false;
                break;
            default:
                return false;
            }
        }
        return true;
    }

    void
    emitGroup(size_t i, size_t j)
    {
        FusedGroup g;
        g.elemsBegin = static_cast<uint32_t>(_prog->fusedElems.size());
        g.numElems = static_cast<uint32_t>(j - i);
        for (size_t p = i; p < j; ++p) {
            const MicroOp &m = _code[p];
            FusedElem e;
            e.code = m.code;
            e.flags = m.flags;
            e.nargs = m.nargs;
            e.argsBegin = m.argsBegin;
            e.result = m.result;
            e.aux = m.aux;
            e.imm = m.imm;
            e.op = m.op;
            e.costId = m.costId;
            foldIndices(m, e);
            for (uint32_t a = 0; a < m.nargs; ++a)
                g.maxHops = std::max(
                    g.maxHops, _prog->args[m.argsBegin + a].hops);
            if (m.code == MOp::Extern) {
                e.resultBegin = m.aux;
                e.nresults = m.op->numResults();
                e.label = &m.op->strAttr("signature");
                e.fn = _opFns.find(*e.label);
            } else {
                e.label = &m.op->name();
            }
            if (m.code == MOp::Read && !m.hasConn() && m.nargs == 1 &&
                m.result != kNoSlot &&
                mayScalarize(static_cast<uint32_t>(p), m.result,
                             static_cast<uint32_t>(j)))
                e.flags |= kFlagScalarize;
            _prog->fusedElems.push_back(e);
        }

        MicroOp f;
        f.code = MOp::Fused;
        // Elements count themselves (opsExecuted parity), so the
        // group record itself is uncounted.
        f.aux = static_cast<uint32_t>(_prog->fusedGroups.size());
        f.op = _code[i].op;
        _prog->fusedGroups.push_back(g);
        _prog->code.push_back(std::move(f));
    }

    std::unique_ptr<CompiledBlock> _prog; ///< rewritten in place
    std::vector<MicroOp> _code;           ///< the lowered record stream
    const OpFunctionRegistry &_opFns;
    std::vector<int64_t> _constOf;    ///< slot -> consts index (-1)
    std::vector<char> _escapes;       ///< slot referenced by descendants
    /** Uses of slot s: _useSites[_useBegin[s], _useBegin[s + 1]). */
    std::vector<uint32_t> _useBegin;
    std::vector<UseSite> _useSites;
};

} // namespace

std::unique_ptr<CompiledBlock>
optimizeProgram(std::unique_ptr<CompiledBlock> prog,
                const OpFunctionRegistry &opFns)
{
    return Fuser(std::move(prog), opFns).run();
}

} // namespace sim
} // namespace eq
