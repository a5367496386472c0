/**
 * @file
 * The compiled execution backend's program representation (the
 * paper's thesis applied to the simulator itself: *compile* the
 * simulation instead of interpreting it, cf. CVC's pre-resolved
 * flow-graph programs, arXiv:1603.08059).
 *
 * A ModuleCompiler (compile.cc) lowers each verified interpretation
 * scope — the module top level or a launch body — once into a dense
 * micro-op stream: one contiguous MicroOp record per interpreter
 * dispatch, with
 *
 *  - the op *kind* pre-lowered from its interned OpId to a dense
 *    MOp opcode (no handler-table lookup at run time),
 *  - operand references pre-resolved to (env-chain hops, slot) pairs
 *    (no scope-id walk per eval), result slots pre-resolved to local
 *    slot indices,
 *  - the op's dense OpId kept in the record, so its cost is one
 *    indexed load from the executing processor class's cost-table row,
 *  - loop bounds, constants, stream element counts, and resolved
 *    component names pre-folded out of the attribute dictionaries,
 *  - branch and region targets pre-computed as absolute pc indices
 *    into the stream (the stream is relocatable: it contains no
 *    pointers into itself).
 *
 * Superinstruction groups form as the stream is emitted: every run of
 * adjacent data, event, and extern records (and a closing Return) is
 * preceded by one MOp::Fused head record, and the group's elements are
 * simply the records that follow the head, so CompiledBlock::code is
 * the program's only record array. Only control flow, linalg, and
 * elaboration run outside groups. Every record carries its trace label,
 * and an extern record its op function, from the moment it is emitted.
 * Once the stream is complete, two in-place passes specialize it:
 * constant index operands fold into immediates (kFlagImmIdx), and
 * whole-cell reads whose every use is later in the same group and
 * scalar-compatible skip their tensor (kFlagScalarize). CompiledExec
 * (compiled_exec.cc) runs the stream with a dense jump-table dispatch
 * over the opcode — a computed jump straight to the micro-op's code —
 * instead of walking ir::Operation nodes. This is the production
 * engine; the interpreter (interp.cc) is the reference it is tested
 * against.
 *
 * Sharing: launch bodies that agree in structure — op kinds,
 * attributes, result types, and operand wiring (block argument, local
 * result, or outer (hops, slot)) — are compiled once and share one
 * program; the only per-site data, the capture mapping, lives with the
 * launch site in the creating program. The records of a shared body
 * name the ops of its first instance; attributes and names are equal
 * by construction, and the program runs in an environment numbered as
 * that first instance, so values looked up through its ops resolve.
 *
 * Lifetime: a CompiledBlock borrows the IR (records keep the
 * originating ir::Operation* for attributes, trace labels, and cold
 * paths) and embeds the scope's value numbering, so it is cached and
 * invalidated exactly like the numbering itself (Simulator::Impl::
 * programs, cleared on any non-batched reset).
 */

#ifndef EQ_SIM_COMPILE_HH
#define EQ_SIM_COMPILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/operation.hh"
#include "sim/costmodel.hh"
#include "sim/opfunctions.hh"
#include "sim/simvalue.hh"

namespace eq {
namespace sim {

/** Compiled micro-op opcodes. One opcode per interpreter handler
 *  (specialized where the handler branches on the op kind, e.g.
 *  load vs store), plus the loop/terminator control records that
 *  replace the interpreter's frame bookkeeping. */
enum class MOp : uint8_t {
    Bad = 0,    ///< uninterpretable op: fatal when (and only when) executed
    // Structure / elaboration (free; shared cores in elaborate.cc).
    CreateProc,
    CreateDma,
    CreateMem,
    CreateStream,
    CreateConnection,
    CreateComp, ///< create_comp / add_comp (kFlagIsAddComp); aux ->
                ///< strings (one name per subcomponent operand)
    GetComp,    ///< get_comp / extract_comp; child name pre-resolved
    Alloc,      ///< equeue.alloc / memref.alloc (kFlagEqueueAlloc)
    Dealloc,
    // Control flow (pre-computed pc targets).
    ForBegin,   ///< aux -> ForLoopInfo; target = pc past ForEnd
    ForEnd,     ///< aux -> ForLoopInfo; target = loop body pc
    ParBegin,   ///< aux -> ParLoopInfo; target = pc past ParEnd
    ParEnd,     ///< aux -> ParLoopInfo; target = loop body pc
    Yield,      ///< loop back-edge: charges the yield cost
    NestedModule, ///< counts the builtin.module dispatch, falls through
    Halt,       ///< end of scope (block tree ran off its end)
    // Scalar compute.
    Constant,   ///< aux -> consts (value attribute pre-folded)
    AddI,
    SubI,
    MulI,
    DivSI,
    RemSI,
    AddF,
    MulF,
    // Memory and high-level compute.
    Load,       ///< affine.load: args = [memref, indices...]
    Store,      ///< affine.store: args = [value, memref, indices...]
    LinalgConv,
    LinalgFill,
    LinalgMatmul,
    LinalgOther, ///< analytic cost only
    Read,       ///< args = [buffer, (conn), indices...]
    Write,      ///< args = [value, buffer, (conn), indices...]
    StreamRead, ///< args = [stream, (conn)]; imm = elems
    StreamWrite, ///< args = [value, stream, (conn)]
    // Events.
    ControlStart,
    ControlAnd,
    ControlOr,
    Launch,     ///< args = [deps..., proc, captured...]; aux ->
                ///< launches
    Memcpy,     ///< args = [dep, src, dst, dma, (conn)]
    Await,      ///< args = [events...] (none = all spawned)
    Return,
    Extern,     ///< aux -> resultPool (its result slots); imm = count
    // Superinstruction head: one dispatch for the group of records
    // that follows it; target = pc past the group's last element.
    Fused,
    kCount
};

/** Pre-resolved value reference: follow @ref hops parent links in the
 *  runtime environment chain, then index @ref slot. Replaces the
 *  interpreter's per-eval scope-id walk. */
struct SlotRef {
    uint32_t slot = 0;
    uint32_t hops = 0;
};

constexpr uint32_t kNoSlot = 0xffffffffu;

/** Env-chain levels an exec resolves once, when it is bound to its
 *  environment; operands referenced from deeper (absurdly deep launch
 *  nesting) walk the rest of the chain per use. */
constexpr uint32_t kMaxFusedHops = 8;

/** MicroOp::flags bits. */
enum : uint8_t {
    kFlagCounts = 1 << 0,      ///< counts toward opsExecuted (one per
                               ///< interpreter dispatch, for parity)
    kFlagHasConn = 1 << 1,     ///< data-motion op carries a connection
    kFlagIsAddComp = 1 << 2,   ///< CreateComp record is an add_comp
    kFlagEqueueAlloc = 1 << 3, ///< Alloc record is an equeue.alloc
    kFlagImmIdx = 1 << 4,      ///< index operands folded to immediates
                               ///< (MicroOp::immBegin -> immIdx)
    kFlagScalarize = 1 << 5,   ///< whole-cell read may bind a scalar
                               ///< instead of materializing a tensor
                               ///< (all uses proven scalar-compatible
                               ///< and inside the fused group)
    kFlagFastForward = 1 << 6, ///< ForBegin/ForEnd of a loop that may
                               ///< fast-forward (unused induction
                               ///< variable, no structure op in its body)
};

/**
 * One instruction record of the micro-op stream. Fixed-size and
 * contiguous; all cross-references are indices (operand pool, aux
 * pools, branch targets), never pointers into the stream. Kept to one
 * cache line: a server holds the programs of every cached model.
 * Executing a record inside a superinstruction group is observationally
 * identical to the interpreter's dispatch of its op — per-op costs,
 * memory/connection acquisition order, opsExecuted accounting, and
 * trace lines are all preserved; only the per-record dispatch (and,
 * with kFlagScalarize, dead tensor materialization) is gone.
 */
struct MicroOp {
    MOp code = MOp::Bad;
    uint8_t flags = 0;
    uint16_t nargs = 0;     ///< operand count in CompiledBlock::args
    uint32_t argsBegin = 0; ///< first operand index in the args pool
    uint32_t result = kNoSlot; ///< local result slot (results are
                               ///< always scope-local: hops == 0)
    uint32_t target = 0;    ///< branch target pc (loops); MOp::Fused:
                            ///< pc past the group's last element
    uint32_t aux = 0;       ///< index into the per-opcode aux pool
    /** OpId::raw() of @ref op: indexes the engine's (CostClass, OpId)
     *  cost table (CostModel::kDynamic defers to linalgCycles at
     *  execution time, exactly like the interpreter). */
    uint32_t costId = 0;
    uint32_t immBegin = 0;  ///< into CompiledBlock::immIdx (kFlagImmIdx)
    int64_t imm = 0;        ///< pre-folded immediate (stream elems,
                            ///< launch deps, extern result count)
    ir::Operation *op = nullptr; ///< originating IR op (attributes,
                                 ///< cold paths)
    /** Extern: op function resolved at compile time (registry entries
     *  are node-stable, so the pointer survives later
     *  re-registrations); null falls back to the by-signature lookup. */
    const OpFunction *fn = nullptr;
    /** Trace label (op name / extern signature), pointing into the
     *  borrowed IR like @ref op. */
    const std::string *label = nullptr;

    bool counts() const { return flags & kFlagCounts; }
    bool hasConn() const { return flags & kFlagHasConn; }
    bool immIdx() const { return flags & kFlagImmIdx; }
    bool scalarize() const { return flags & kFlagScalarize; }
};
static_assert(sizeof(MicroOp) <= 64, "MicroOp outgrew a cache line");

/** A compiled interpretation scope: the relocatable micro-op stream
 *  plus its pooled operands and pre-folded auxiliary data. */
struct CompiledBlock {
    std::vector<MicroOp> code;
    std::vector<SlotRef> args; ///< operand pool (MicroOp::argsBegin)

    /** Pre-folded attribute constants (MOp::Constant). */
    std::vector<SimValue> consts;
    /** Extra result slots for multi-result ops (MOp::Extern). */
    std::vector<uint32_t> resultPool;
    /** Pre-resolved component child names (MOp::GetComp) and parsed
     *  subcomponent name lists (MOp::CreateComp). */
    std::vector<std::string> strings;

    struct ForLoopInfo {
        int64_t lb, ub, step;
        uint32_t ivSlot;
    };
    std::vector<ForLoopInfo> forLoops;

    struct ParLoopInfo {
        std::vector<int64_t> lbs, ubs, steps;
        std::vector<uint32_t> ivSlots;
    };
    std::vector<ParLoopInfo> parLoops;

    /** Pre-resolved captured-value mapping of a launch site: at issue
     *  time, src (relative to the *creator* environment, i.e. this
     *  program's) is copied into the body-local block-argument slot.
     *  Replaces the interpreter's per-issue captured() walk and
     *  scope-chain finds. */
    struct Capture {
        SlotRef src;      ///< creator-relative (hops from creatorEnv)
        uint32_t argSlot; ///< body-local block-argument slot
    };
    /** Every launch site's captures, back to back. */
    std::vector<Capture> captures;

    /** One launch site of this scope: its body's program, compiled
     *  eagerly with this one (and shared by every body of the same
     *  shape), and the site's captures. A Launch record's aux indexes
     *  @ref launches; body and captures ride on the Event so issue
     *  skips the program-cache lookup. Programs are owned by the
     *  engine's program store (same lifetime as this block). */
    struct LaunchSite {
        const CompiledBlock *body;
        uint32_t capturesBegin;
        uint32_t numCaptures;
    };
    std::vector<LaunchSite> launches;

    /** Immediate index operands folded from same-scope constants
     *  (records with kFlagImmIdx). */
    std::vector<int64_t> immIdx;

    /** Root block this program was compiled from (for a shared body,
     *  its shape's first instance). */
    ir::Block *root = nullptr;
    /** Scope this program was compiled against (must match the
     *  executing environment's scopeId). */
    uint32_t scopeId = 0;
    uint32_t numSlots = 0;
    /** This program and every body it launches keep data out of timing:
     *  each index operand is a constant, a loop induction variable or
     *  integer arithmetic over those, and each extern is a built-in
     *  ("mac", "mul4", "mac4"). The top level's flag is the module's
     *  half of the fast-forward rules. */
    bool ffClean = false;
    /** This program or a body it launches builds hardware (create_*,
     *  add_comp/get_comp) or holds another record no loop may skip (a
     *  nested module, an uninterpretable op). */
    bool hasElab = false;
    /** Deepest env-chain hop count over all operand refs: an exec
     *  resolves that many chain levels once, when it is bound, instead
     *  of walking parent links per operand. */
    uint32_t maxHops = 0;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_COMPILE_HH
