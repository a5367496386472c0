/**
 * @file
 * The systolic-array generator of Section VI-B: C++ code that uses the
 * builder API to emit an EQueue program modeling an Ah x Aw systolic
 * convolution accelerator under the WS / IS / OS dataflows.
 *
 * The emitted program is a cycle/traffic model in the same spirit as
 * SCALE-Sim (which is also not a functional simulator): processing
 * elements are MAC processors with register files; the stationary tensor
 * preloads through a bandwidth-limited connection; moving operands enter
 * on the boundary rows/columns from SRAM; partial results pass to
 * neighbor registers each cycle and exit to SRAM. Simulated cycles and
 * SRAM byte counters come from the generic engine executing the emitted
 * ops, not from closed-form formulas — the agreement with the analytic
 * SCALE-Sim baseline (Fig. 9) is therefore a meaningful cross-check of
 * the event-queue machinery.
 *
 * The generator shares its configuration struct with the SCALE-Sim
 * baseline so experiments sweep both models from one description. Its
 * PEs, their MAC stage and their register moves are the blocks of
 * systolic/pe.hh, which the SoC family's tiles are built from too;
 * this file adds the fold shapes, the boundary streams and the
 * stationary preload.
 */

#ifndef EQ_SYSTOLIC_GENERATOR_HH
#define EQ_SYSTOLIC_GENERATOR_HH

#include "ir/builder.hh"
#include "scalesim/scalesim.hh"

namespace eq {
namespace systolic {

using scalesim::Config;
using scalesim::Dataflow;

/** Names of the SRAM buffers the generator creates (for report lookup,
 *  matched against MemReport/Component names). */
struct SystolicNames {
    static constexpr const char *sram = "SRAM";
    static constexpr const char *stage = "StageRegs";
};

/** Emission variants (the pass-built pipeline of §VI-D produces the
 *  steady-state model without the final cool-down, explaining the small
 *  generator-vs-pipeline runtime gap the paper reports). */
struct EmitOptions {
    /** Skip the cool-down (drain) of the final fold. */
    bool skipFinalDrain = false;
};

/**
 * Emit the full EQueue module for @p cfg: structure declarations, fold
 * loop, stationary preload, streaming and drain loops with per-PE
 * launches.
 */
ir::OwningOpRef buildSystolicModule(ir::Context &ctx, const Config &cfg,
                                    const EmitOptions &opts = {});

/** Emit into an existing (empty) module — used by the systolic
 *  conversion step of the lowering pipeline. */
void emitSystolicInto(ir::Operation *module, const Config &cfg,
                      const EmitOptions &opts = {});

/** Analytic cycle count the emitted module is expected to simulate to
 *  (identical to the SCALE-Sim baseline by construction). */
uint64_t expectedCycles(const Config &cfg);

/** Fold count = ceil(D1/Ah) * ceil(D2/Aw) (paper Fig. 12c-e). */
uint64_t loopIterations(const Config &cfg);

} // namespace systolic
} // namespace eq

#endif // EQ_SYSTOLIC_GENERATOR_HH
