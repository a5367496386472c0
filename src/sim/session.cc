#include "sim/session.hh"

#include <cassert>
#include <chrono>

#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

Session::Session(EngineOptions opts) : _sim(opts)
{
    ir::registerAllDialects(_ctx);
}

void
Session::rebuild(const BuildFn &build)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    _module = ir::OwningOpRef();
    _runs = 0;
    _lastBuildSeconds = 0.0;
    // A failed build throws past the assignment and leaves the session
    // coherently "not ready" — no stale module — so a caller (e.g. the
    // serving layer's ProgramCache) can catch, report a structured
    // error, and retry the build later.
    _module = build(_ctx);
    assert(_module.get() && "Session build function returned no module");
    // Dropping the old module rewound the context's IR store (when it
    // was the last tree there): give back the chunks this one left.
    _ctx.irStore().releaseUnused();
    _lastBuildSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
}

void
Session::releasePools()
{
    _sim._impl->releasePools();
    _ctx.irStore().releaseUnused();
}

SimReport
Session::run()
{
    assert(ready() && "Session::run before rebuild()");
    // The first run is a plain simulate(): verify once and rebuild
    // numbering and programs from scratch, since leftovers from an
    // earlier module (possibly destroyed, its addresses reusable)
    // cannot be trusted. From then on the previous run interpreted
    // exactly this pinned module, so its numbering and programs are
    // authoritative. A run that throws does not count.
    SimReport report =
        _runs == 0 ? _sim.simulate(_module.get())
                   : _sim._impl->runModule(_module.get(), /*reuse=*/true);
    ++_runs;
    return report;
}

} // namespace sim
} // namespace eq
