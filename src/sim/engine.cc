/**
 * @file
 * The Simulator facade: run setup (reset, dispatch-table build, root
 * environment), the run loop, and report generation. The engine's
 * moving parts live in event_core.cc / elaborate.cc / interp.cc /
 * handlers.cc (see engine_impl.hh for the map).
 */

#include "sim/engine_impl.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "sim/compiled_exec.hh"

namespace eq {
namespace sim {

const char *
backendName(Backend backend)
{
    switch (backend) {
    case Backend::Interp: return "interp";
    case Backend::Compiled: return "compiled";
    case Backend::Auto: break;
    }
    return "auto";
}

bool
backendFromName(const std::string &name, Backend *out)
{
    for (Backend b : {Backend::Auto, Backend::Interp, Backend::Compiled}) {
        if (name == backendName(b)) {
            *out = b;
            return true;
        }
    }
    return false;
}

void
simulationFailed(const std::string &message)
{
    throw SimError(ErrorCode::SimulationFailed, message);
}

Backend
resolveBackend(Backend requested)
{
    if (requested != Backend::Auto)
        return requested;
    const char *env = std::getenv("EQ_SIM_BACKEND");
    if (!env || !*env)
        return Backend::Compiled;
    Backend backend;
    if (!backendFromName(env, &backend) || backend == Backend::Auto)
        eq_fatal("EQ_SIM_BACKEND must be 'interp' or 'compiled', got '",
                 env, "'");
    return backend;
}

SimReport
Simulator::Impl::buildReport(double wall_seconds) const
{
    SimReport rep;
    rep.cycles = endTime;
    rep.wallSeconds = wall_seconds;
    rep.eventsExecuted = eventsExecuted;
    rep.opsExecuted = opsExecuted;
    rep.dispatchCount = dispatchCount;
    double cyc = std::max<double>(1.0, static_cast<double>(endTime));

    for (const auto &comp : components) {
        if (auto *mem = dynamic_cast<Memory *>(comp.get())) {
            MemReport m;
            m.name = mem->name();
            m.kind = mem->kind();
            m.bytesRead = mem->bytesRead();
            m.bytesWritten = mem->bytesWritten();
            m.avgReadBw = m.bytesRead / cyc;
            m.avgWriteBw = m.bytesWritten / cyc;
            rep.memories.push_back(std::move(m));
        } else if (auto *conn = dynamic_cast<Connection *>(comp.get())) {
            ConnReport c;
            c.name = conn->name();
            c.kind = conn->kind();
            c.bandwidthLimit = conn->bandwidth();
            c.readBytes = conn->readBytes();
            c.writeBytes = conn->writeBytes();
            c.avgReadBw = c.readBytes / cyc;
            c.avgWriteBw = c.writeBytes / cyc;
            c.maxBw = conn->maxRate();
            c.maxBwPortionRead = conn->cyclesAtMaxRate(true) / cyc;
            c.maxBwPortionWrite = conn->cyclesAtMaxRate(false) / cyc;
            rep.connections.push_back(std::move(c));
        } else if (auto *proc = dynamic_cast<Processor *>(comp.get())) {
            ProcReport p;
            p.name = proc->name();
            p.kind = proc->kind();
            p.busyCycles = proc->busyCycles();
            p.opsExecuted = proc->opsExecuted();
            p.utilization = p.busyCycles / cyc;
            rep.processors.push_back(std::move(p));
        }
    }
    return rep;
}

// ---------------------------------------------------------------------------
// Simulator facade

Simulator::Simulator(EngineOptions opts) : _impl(std::make_unique<Impl>())
{
    _impl->opts = opts;
    _impl->backend = resolveBackend(opts.backend);
    _impl->traceData.setEnabled(opts.enableTrace);
}

Simulator::~Simulator() = default;

Backend
Simulator::backend() const
{
    return _impl->backend;
}

bool
Simulator::fusionEnabled() const
{
    return _impl->backend == Backend::Compiled;
}

Trace &
Simulator::trace()
{
    return _impl->traceData;
}

size_t
Simulator::pendingEvents() const
{
    return _impl->events.livePayloads();
}

size_t
Simulator::peakLiveEvents() const
{
    return _impl->events.peakPayloads();
}

uint64_t
Simulator::fastForwardedIterations() const
{
    return _impl->ffIterations;
}

OpFunctionRegistry &
Simulator::opFunctions()
{
    return _impl->opFns;
}

ComponentFactory &
Simulator::componentFactory()
{
    return _impl->factory;
}

SimReport
Simulator::Impl::runModule(ir::Operation *module, bool reuse_compiled)
{
    auto t0 = std::chrono::steady_clock::now();
    bool trace_on = traceData.enabled();
    // A full reset clears value numbering (a fresh module's blocks may
    // alias destroyed ones); batched re-runs of a pinned module keep it.
    reset(/*keep_numbering=*/reuse_compiled);
    traceData.setEnabled(trace_on);
    // Dispatch resolves against the module's context; a Session's runs
    // all share one, so they build the tables once.
    prepareDispatchTables(module->context());

    ir::Block *root = &module->region(0).front();
    EnvPtr env = makeEnv(root, nullptr);
    if (backend == Backend::Compiled) {
        const CompiledBlock &prog = programFor(root);
        ffEnabled = prog.ffClean && !trace_on && opFns.builtinsIntact();
        acquireExec(nullptr, rootProc.get(), prog, std::move(env))
            ->resume(0);
    } else {
        acquireBlockExec(nullptr, rootProc.get(), root, std::move(env))
            ->resume(0);
    }
    runHeap();
    // Nothing left to run, so a live event waits for what can no
    // longer happen.
    if (events.livePayloads() != 0)
        deadlocked();

    auto t1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(t1 - t0).count();
    return buildReport(wall);
}

SimReport
Simulator::simulate(ir::Operation *module)
{
    eq_assert(module->name() == "builtin.module",
              "simulate expects a builtin.module");
    if (_impl->opts.verifyModule) {
        std::string err = module->verify();
        if (!err.empty())
            simulationFailed("module verification failed: " + err);
    }
    return _impl->runModule(module, /*reuse_compiled=*/false);
}

} // namespace sim
} // namespace eq
