/**
 * @file
 * Superinstruction fusion over the compiled micro-op stream (ROADMAP
 * "Micro-op superinstructions"; cf. the lowered-representation
 * optimizations of compiled simulators like CVC, arXiv:1603.08059, and
 * Manticore, arXiv:2301.09413).
 *
 * After ModuleCompiler lowering (sim/compile.cc), optimizeProgram()
 * rewrites every CompiledBlock before it is cached, so the compiled
 * backend only ever executes fused programs:
 *
 *  - every maximal run of adjacent data records (reads, writes, stream
 *    ops, extern calls, scalar arith, constants, event ops) and any
 *    Return becomes one MOp::Fused superinstruction record carrying the
 *    constituent elements — one dispatch then executes the whole group (Read→Mac→Write,
 *    Read→Write copies, StreamRead→compute→StreamWrite, ...). A lone
 *    record becomes a one-element group, so CompiledExec::execFused is
 *    the single compiled definition of every data op; only control
 *    flow, linalg, and elaboration keep their own records;
 *  - whole-cell reads whose every use is inside the group and provably
 *    scalar-compatible are flagged kFlagScalarize, eliminating the
 *    per-read tensor allocation;
 *  - extern elements cache their registered op-function pointer (no
 *    per-call signature lookup);
 *  - operand env-hop chains are coalesced: the executor resolves each
 *    chain level once per group entry instead of walking parent links
 *    per operand;
 *  - index operands that are same-scope constants fold into immediate
 *    offsets (kFlagImmIdx).
 *
 * Observational equivalence with the interpreter is preserved by
 * construction: every element executes with the same per-op cost
 * accounting, memory and connection acquisition order, suspend/resume
 * decisions, opsExecuted accounting, and trace records as the
 * interpreter's handler for its op (groups suspend and resume
 * mid-group exactly where the op-by-op walk would). Reports, traces,
 * and goldens are byte-identical; only the dispatch count — surfaced
 * as SimReport::dispatchCount — drops.
 */

#ifndef EQ_SIM_FUSION_HH
#define EQ_SIM_FUSION_HH

#include <memory>

#include "sim/compile.hh"

namespace eq {
namespace sim {

class OpFunctionRegistry;

/**
 * Rewrite the lowered program @p prog in place with superinstruction
 * fusion (its pools are kept; only the record stream is replaced).
 * Launch bodies pinned in prog->launches must already be fused.
 * @param opFns registry used to cache extern function pointers
 */
std::unique_ptr<CompiledBlock>
optimizeProgram(std::unique_ptr<CompiledBlock> prog,
                const OpFunctionRegistry &opFns);

} // namespace sim
} // namespace eq

#endif // EQ_SIM_FUSION_HH
