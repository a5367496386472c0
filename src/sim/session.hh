/**
 * @file
 * sim::Session — the one build-cache-run path shared by every consumer
 * of the engine that re-runs modules (bench harness workers, the sweep
 * runner's per-worker state, and the serving layer's program cache).
 *
 * A Session owns the full per-worker simulation stack: one ir::Context
 * (dialects registered once), one Simulator (backend option
 * resolved once), and — after rebuild() — a pinned module plus the
 * BatchSession that amortizes verification, dispatch tables, value
 * numbering, and compiled/fused programs across repeated runs.
 *
 * The Session does not decide *when* to rebuild: callers key on their
 * own structural config (value equality in the bench workers, hash +
 * full structural equality in serve::ProgramCache) and call rebuild()
 * exactly when the key changes. This keeps the collision-safety
 * decision where the typed config lives while the build/pin/run
 * mechanics stay in one place.
 */

#ifndef EQ_SIM_SESSION_HH
#define EQ_SIM_SESSION_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "ir/context.hh"
#include "ir/operation.hh"
#include "sim/engine.hh"

namespace eq {
namespace sim {

class Session {
  public:
    /** Build a module inside the session's context. The returned
     *  module is owned (and kept alive) by the session. */
    using BuildFn = std::function<ir::OwningOpRef(ir::Context &)>;

    explicit Session(EngineOptions opts = {});

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** True once rebuild() has pinned a module. */
    bool ready() const { return _session.has_value(); }

    /**
     * Drop the current module (if any) and pin a fresh one built by
     * @p build. The previous BatchSession is destroyed first — it pins
     * the old module — and the build is self-timed (lastBuildSeconds).
     */
    void rebuild(const BuildFn &build);

    /** Simulate the pinned module once more (ready() must hold).
     *  Cycle-identical to a fresh Simulator run of the same module. */
    SimReport run();

    /** Wall seconds the most recent rebuild() spent building; callers
     *  that skipped the rebuild report 0 for "reused". */
    double lastBuildSeconds() const { return _lastBuildSeconds; }

    /** Runs completed on the currently pinned module. */
    uint64_t runsCompleted() const
    {
        return _session ? _session->runsCompleted() : 0;
    }

    ir::Context &context() { return _ctx; }
    Simulator &simulator() { return _sim; }
    ir::Operation *module() const { return _module.get(); }

  private:
    ir::Context _ctx;
    Simulator _sim;
    ir::OwningOpRef _module;
    std::optional<BatchSession> _session;
    double _lastBuildSeconds = 0.0;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_SESSION_HH
