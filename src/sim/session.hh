/**
 * @file
 * sim::Session — the one API for running a pinned module again and
 * again, and the build-cache-run path every re-running consumer of the
 * engine shares through serve::ProgramCache: the daemon's cache and
 * the per-sweep pools behind the bench harnesses and in-process
 * sweeps.
 *
 * A Session owns one worker's full simulation stack: one ir::Context
 * (dialects registered once), one Simulator (backend option resolved
 * once), and — after rebuild() — a pinned module. The first run after
 * a rebuild verifies the module and fully resets the engine's value
 * numbering (the new module's blocks may alias destroyed ones); later
 * runs keep the numbering and the compiled programs. The
 * dispatch tables (one context) and the pooled buffers outlive
 * rebuilds too. Per-run state — components, buffer contents, events,
 * the heap — always resets, so every run is cycle-identical to a
 * fresh Simulator's. Plain simulator().simulate() calls in between are
 * safe: the next run renumbers and relowers lazily.
 *
 * The Session does not decide *when* to rebuild: serve::ProgramCache
 * keys on the structural config (hash + full serve::ModelKey equality)
 * and calls rebuild() exactly when an entry's key is new, on a fresh
 * Session or on one recycled from an evicted entry. This keeps the
 * collision-safety decision where the typed config lives while the
 * build/pin/run mechanics stay in one place. Code that needs no cache
 * (a microbenchmark, a one-shot bench run) rebuilds a Session
 * directly.
 */

#ifndef EQ_SIM_SESSION_HH
#define EQ_SIM_SESSION_HH

#include <cstdint>
#include <functional>

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
    bool ready() const { return _module.get() != nullptr; }

    /**
     * Drop the current module (if any) and pin a fresh one built by
     * @p build; the next run() starts from a full engine reset. The
     * build is self-timed (lastBuildSeconds).
     */
    void rebuild(const BuildFn &build);

    /** Simulate the pinned module once more (ready() must hold).
     *  Cycle-identical to a fresh Simulator run of the same module. */
    SimReport run();

    /** Free the engine's pooled run storage (the event slab, the exec
     *  and env pools), which keeps the size of the largest run so far,
     *  and drop the pinned module's numbering and programs; the context,
     *  the dispatch tables and the last run's buffers stay. For a
     *  session about to be rebuilt for another config that should not
     *  carry the earlier configs' peak footprint (the program cache
     *  recycling an evicted entry). The next run() renumbers and
     *  recompiles lazily. */
    void releasePools();

    /** Wall seconds the most recent rebuild() spent building; callers
     *  that skipped the rebuild report 0 for "reused". */
    double lastBuildSeconds() const { return _lastBuildSeconds; }

    /** Runs completed on the currently pinned module. */
    uint64_t runsCompleted() const { return _runs; }

    ir::Context &context() { return _ctx; }
    Simulator &simulator() { return _sim; }
    ir::Operation *module() const { return _module.get(); }

  private:
    ir::Context _ctx;
    Simulator _sim;
    ir::OwningOpRef _module;
    uint64_t _runs = 0;
    double _lastBuildSeconds = 0.0;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_SESSION_HH
