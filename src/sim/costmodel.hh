/**
 * @file
 * Per-processor-kind operation cost tables and analytic costs for
 * high-level (Linalg) ops.
 *
 * Processor kinds model the paper's component library tags:
 *  - "ARMr5"/"ARMr6"/"Generic": scalar control cores; every interpreted
 *    compute/data op costs one cycle (loads, stores, arithmetic, loop
 *    back-edges), bookkeeping (event ops, allocation) is free.
 *  - "MAC": a systolic processing element; data movement is part of the
 *    datapath (free), fused multiply-accumulate (equeue.op "mac") and
 *    scalar arithmetic cost one cycle.
 *  - "AIEngine": a VLIW SIMD core; vector intrinsics via equeue.op cost
 *    one cycle, stream/register moves are issued by dedicated units
 *    (free to the core).
 *  - "DMA": only executes memcpy; its timing is bandwidth-derived.
 *
 * Kind strings are resolved once into a CostClass; the engine then
 * fills a dense (CostClass, OpId) -> cycles table per context from a
 * per-process table keyed by op name, so the per-event hot path never
 * compares strings (only dynamically shaped Linalg costs fall back to
 * linalgCycles).
 */

#ifndef EQ_SIM_COSTMODEL_HH
#define EQ_SIM_COSTMODEL_HH

#include <string>
#include <string_view>

#include "ir/operation.hh"
#include "sim/component.hh"

namespace eq {
namespace sim {

/** Resolved processor cost class (see file comment). Forward-declared
 *  in component.hh so Processor can cache its class. */
enum class CostClass : uint8_t {
    Root = 0, ///< the host orchestration processor: everything is free
    Scalar,   ///< ARMr5 / ARMr6 / Generic scalar cores
    MAC,      ///< systolic processing element
    AIEngine, ///< VLIW SIMD core
    DMA,      ///< data-movement engine
    Other,    ///< unknown kinds: behave like scalar cores
};
constexpr unsigned kNumCostClasses = 6;

/** Static cost model resolving (processor kind, op) -> cycles. */
class CostModel {
  public:
    /** Sentinel for ops whose cost depends on operand shapes; resolve
     *  via linalgCycles(op) at execution time. */
    static constexpr Cycles kDynamic = ~Cycles(0);

    /** Resolve a processor kind string to its cost class. */
    static CostClass classify(const std::string &proc_kind);

    /** Cycles for @p op_name on @p cls, or kDynamic when the cost is
     *  shape-dependent. String-based: the engine's process-wide op
     *  table (engine_impl.hh, OpEntry) holds it for every known name. */
    static Cycles staticOpCycles(CostClass cls, std::string_view op_name);

    /** Processor occupancy in cycles for interpreting @p op.
     *  Convenience wrapper over classify + staticOpCycles +
     *  linalgCycles; the engine uses its precomputed table instead. */
    static Cycles opCycles(const std::string &proc_kind,
                           ir::Operation *op);

    /** Analytic cost of a linalg op on a scalar core (naive schedule,
     *  every operand element fetched from backing memory). */
    static Cycles linalgCycles(ir::Operation *op);

    /** True if the kind is a scalar control core. */
    static bool isScalarCore(const std::string &proc_kind);
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_COSTMODEL_HH
