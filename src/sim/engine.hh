/**
 * @file
 * The generic EQueue simulation engine (Section IV).
 *
 * The Simulator interprets a module containing any mix of dialects:
 *  - fully lowered EQueue programs execute with per-component contention,
 *    event queues, and bandwidth-limited connections;
 *  - Affine-level programs execute loop-by-loop on scalar cores;
 *  - Linalg-level ops execute with analytic cost models.
 * This realises the multi-level simulation spectrum of Fig. 1.
 *
 * Execution is a deterministic single-threaded discrete-event simulation:
 * a time-ordered heap drives processor issue, operation completion, and
 * event dependency resolution. Per the paper's semantics (§III-D), every
 * processor owns a FIFO event queue; a launch enqueues an event; the
 * queue head issues once its dependencies complete; each processor
 * executes one event at a time; blocks run sequentially but spawn
 * concurrent events on other processors.
 */

#ifndef EQ_SIM_ENGINE_HH
#define EQ_SIM_ENGINE_HH

#include <memory>
#include <string>

#include "base/failure.hh"
#include "ir/operation.hh"
#include "sim/component.hh"
#include "sim/opfunctions.hh"
#include "sim/report.hh"
#include "sim/trace.hh"

namespace eq {
namespace sim {

class Session;

/**
 * Execution backend of the engine's hot loop.
 *
 * Both backends share the event core, elaboration, cost model, and
 * report generation; cycle counts, reports, and traces are identical.
 *  - Compiled (the production engine): lowers each region once into a
 *    dense micro-op stream (pre-resolved slots, pre-folded costs,
 *    pre-computed branch targets; see sim/compile.hh) whose runs of
 *    data records form superinstruction groups as it is emitted,
 *    and dispatches over that stream. Launch bodies of one shape
 *    share one program, and compilation is cached per region, so
 *    Session re-runs and sweeps pay it once per structural config.
 *  - Interp: tree-walks ir::Operation nodes through the OpId handler
 *    table. Kept as the reference oracle the compiled backend is
 *    tested against.
 *  - Auto (default): resolved from the EQ_SIM_BACKEND environment
 *    variable ("compiled" | "interp"), falling back to Compiled.
 */
enum class Backend : uint8_t { Auto, Interp, Compiled };

/** The backend's name: "auto", "interp" or "compiled". */
const char *backendName(Backend backend);

/** Parse a backendName() spelling. False (leaving @p out) otherwise. */
bool backendFromName(const std::string &name, Backend *out);

/** Resolve Auto against EQ_SIM_BACKEND ("compiled" | "interp"; unset
 *  or empty means Compiled, anything else is fatal). Other values
 *  pass through. A Simulator resolves once, at construction. */
Backend resolveBackend(Backend requested);

/**
 * A run that could not finish: an Error whose code() says why —
 * resource_exhausted for an exhausted op budget (EngineOptions::maxOps),
 * deadlock for a run that ended with events that never completed,
 * simulation_failed for a module the engine cannot run. The Simulator
 * (and a Session around it) stays usable: its next run starts from a
 * reset.
 */
using SimError = Error;

/** Throw the simulation_failed SimError: the module fails verification
 *  or asks for what the engine lacks (an op it cannot run, a missing
 *  subcomponent, memory kind or op function). Cold and out of line,
 *  so the loops that reach it do not grow. */
[[noreturn, gnu::cold]] void simulationFailed(const std::string &message);

/** Engine configuration. */
struct EngineOptions {
    /** Record operation-level trace slices (costs memory). */
    bool enableTrace = false;
    /** Run the IR verifier before simulating. */
    bool verifyModule = true;
    /** Runaway-program guard: a run that executes more ops than this
     *  throws SimError. */
    uint64_t maxOps = 500'000'000;
    /** Execution backend; Auto resolves EQ_SIM_BACKEND at Simulator
     *  construction (default Compiled). */
    Backend backend = Backend::Auto;
};

/** What Simulator::precompile lowered. */
struct PrecompileStats {
    /** Micro-ops over all programs: every record except the
     *  superinstruction group heads. */
    size_t microOps = 0;
    /** Programs: the top level plus one per distinct launch-body
     *  shape (bodies of one shape share a program). */
    size_t programs = 0;
};

/**
 * The generic simulator. One instance can run many modules; custom
 * operation functions and component kinds registered on it persist
 * across runs (per §IV-D extensibility).
 */
class Simulator {
  public:
    explicit Simulator(EngineOptions opts = {});
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Simulate @p module to completion.
     * @return profiling summary (§IV-B)
     */
    SimReport simulate(ir::Operation *module);

    /** Trace of the most recent run (enable via options). */
    Trace &trace();

    /** The resolved execution backend (never Backend::Auto). */
    Backend backend() const;

    /** Whether runs execute superinstruction-fused programs: always
     *  on the compiled backend, never on the interpreter. */
    bool fusionEnabled() const;

    /**
     * Lower every region of @p module to micro-op streams now, from
     * scratch (drops all cached numbering and programs first, so
     * repeated calls measure full compilation cost — this is the
     * BM_CompileModule hook, quantifying exactly the setup a
     * Session's first run pays and its re-runs amortize, grouping
     * included). Note a subsequent run still recompiles: per-run setup
     * legitimately rebuilds caches unless a Session pins the module.
     */
    PrecompileStats precompile(ir::Operation *module);

    /**
     * Events of the most recent run that never completed: 0 when the
     * run drained, at least 1 when it stopped with work blocked
     * forever (say, a launch waiting on a stream nobody writes). Each
     * such event still holds its payload (see peakLiveEvents).
     */
    size_t pendingEvents() const;

    /** Most events live (created, not yet completed) at once in the
     *  most recent run: the size of the engine's event payload pool.
     *  Completed events keep only an 8-byte completion word each, so
     *  this, not the run's event count, bounds the payload memory. */
    size_t peakLiveEvents() const;

    /**
     * Loop iterations the most recent run skipped by exact
     * fast-forward: on the compiled backend with tracing off, a loop
     * whose timing state repeats between two iteration boundaries has
     * its remaining iterations accounted at once and runs only the
     * last (README "Exact fast-forward"). Reports are unchanged by it;
     * 0 on the interpreter and with tracing on.
     */
    uint64_t fastForwardedIterations() const;

    /** Custom `equeue.op` signatures (§III-E). */
    OpFunctionRegistry &opFunctions();

    /** Custom component kinds, e.g. a Cache memory (§IV-D). */
    ComponentFactory &componentFactory();

    /** Engine internals (public so the interpreter in engine.cc can
     *  collaborate with it; not part of the user-facing API). */
    struct Impl;

  private:
    friend class Session; // pinned re-runs call Impl::runModule
    std::unique_ptr<Impl> _impl;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_ENGINE_HH
