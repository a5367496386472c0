/**
 * @file
 * Shared helpers for the experiment harnesses, built on the sweep
 * subsystem (src/sweep/): per-worker systolic simulation state with
 * batched module reuse, self-timed runs, and the common command-line
 * surface (--threads/--csv/--json) every harness exposes.
 */

#ifndef EQ_BENCH_BENCH_UTIL_HH
#define EQ_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ir/builder.hh"
#include "scalesim/scalesim.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "soc/soc.hh"
#include "sweep/grid.hh"
#include "sweep/journal.hh"
#include "sweep/runner.hh"
#include "sweep/table.hh"
#include "systolic/generator.hh"

namespace eq {
namespace bench {

/** Engine-side result of simulating one systolic configuration. The
 *  helper times itself: @ref buildSeconds is module construction only,
 *  @ref simSeconds is engine execution only — harnesses must not wrap
 *  their own clocks around the call (they used to time build+simulate
 *  together, inconsistently between figures). */
struct SystolicRun {
    sim::SimReport report;
    int64_t sramReadBytes = 0;
    int64_t sramWriteBytes = 0;
    double ofmapWriteBw = 0.0;
    double buildSeconds = 0.0; ///< module (re)build; 0 when reused
    double simSeconds = 0.0;   ///< engine wall time (report.wallSeconds)
};

/**
 * Per-worker systolic simulation state for sharded sweeps, built on
 * sim::Session (one Context + Simulator + pinned module/BatchSession
 * per worker): the session is rebuilt only when a point's structural
 * parameters change, so repeated runs of an unchanged point reuse the
 * module, its value numbering, the dispatch tables, and any compiled
 * programs. The config comparison stays typed (operator==), so reuse
 * never depends on hash uniqueness.
 */
class SystolicWorker {
  public:
    explicit SystolicWorker(sim::EngineOptions opts = {})
        : _session(opts)
    {
    }

    SystolicRun
    run(const scalesim::Config &cfg)
    {
        SystolicRun out;
        if (!_session.ready() || _cfg != cfg) {
            _session.rebuild([&](ir::Context &ctx) {
                return systolic::buildSystolicModule(ctx, cfg);
            });
            _cfg = cfg;
            out.buildSeconds = _session.lastBuildSeconds();
        }
        out.report = _session.run();
        out.simSeconds = out.report.wallSeconds;
        for (const auto &m : out.report.memories) {
            if (m.kind == "SRAM") {
                out.sramReadBytes += m.bytesRead;
                out.sramWriteBytes += m.bytesWritten;
            }
        }
        out.ofmapWriteBw =
            out.sramWriteBytes /
            std::max<double>(1.0, double(out.report.cycles));
        return out;
    }

  private:
    sim::Session _session;
    scalesim::Config _cfg;
};

/** One pool of workers sized for @p runner sharding @p num_points. */
inline std::vector<std::unique_ptr<SystolicWorker>>
makeSystolicWorkers(const sweep::SweepRunner &runner, size_t num_points,
                    sim::EngineOptions opts = {})
{
    std::vector<std::unique_ptr<SystolicWorker>> workers;
    unsigned n = runner.threadsFor(num_points);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.push_back(std::make_unique<SystolicWorker>(opts));
    return workers;
}

/** One-shot convenience: simulate @p cfg with fresh state. */
inline SystolicRun
runSystolic(const scalesim::Config &cfg, sim::EngineOptions opts = {})
{
    SystolicWorker worker(opts);
    return worker.run(cfg);
}

/** Engine-side result of simulating one SoC configuration. */
struct SocRun {
    sim::SimReport report;
    int64_t busReadBytes = 0;
    int64_t busWriteBytes = 0;
    double busMaxPortion = 0.0; ///< peak bus occupancy (read+write)
    double buildSeconds = 0.0;  ///< module (re)build; 0 when reused
    double simSeconds = 0.0;    ///< engine wall time
};

/**
 * Per-worker SoC simulation state for sharded sweeps: the SocWorker
 * analogue of SystolicWorker, keyed on soc::SocConfig — the same
 * sim::Session build-cache-run path, rebuilt only when the point's
 * config stops being value-equal to the previous one.
 */
class SocWorker {
  public:
    explicit SocWorker(sim::EngineOptions opts = {}) : _session(opts) {}

    SocRun
    run(const soc::SocConfig &cfg)
    {
        SocRun out;
        if (!_session.ready() || _cfg != cfg) {
            _session.rebuild([&](ir::Context &ctx) {
                return soc::buildSocModule(ctx, cfg);
            });
            _cfg = cfg;
            out.buildSeconds = _session.lastBuildSeconds();
        }
        out.report = _session.run();
        out.simSeconds = out.report.wallSeconds;
        if (!out.report.connections.empty()) {
            // The bus is the first connection the generator creates.
            const auto &bus = out.report.connections.front();
            out.busReadBytes = bus.readBytes;
            out.busWriteBytes = bus.writeBytes;
            out.busMaxPortion =
                bus.maxBwPortionRead + bus.maxBwPortionWrite;
        }
        return out;
    }

  private:
    sim::Session _session;
    soc::SocConfig _cfg;
};

/** One pool of SoC workers sized for @p runner sharding @p num_points. */
inline std::vector<std::unique_ptr<SocWorker>>
makeSocWorkers(const sweep::SweepRunner &runner, size_t num_points,
               sim::EngineOptions opts = {})
{
    std::vector<std::unique_ptr<SocWorker>> workers;
    unsigned n = runner.threadsFor(num_points);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.push_back(std::make_unique<SocWorker>(opts));
    return workers;
}

/** True when the full (slow) sweep was requested via EQ_FULL_SWEEP=1. */
inline bool
fullSweepRequested()
{
    const char *env = std::getenv("EQ_FULL_SWEEP");
    return env && std::string(env) == "1";
}

/**
 * The command-line surface shared by every harness:
 *   --threads N   worker threads (overrides EQ_SWEEP_THREADS)
 *   --csv PATH    write the result table as CSV
 *   --json PATH   write the result table as JSON
 *   --no-wall     omit wall-clock columns (so tables from different
 *                 thread counts / machines compare byte-identically)
 *   --backend B   engine backend: "interp" or "compiled" (overrides
 *                 EQ_SIM_BACKEND; results are identical, only wall
 *                 time differs)
 *   --journal P   journal completed points to P (sweep/journal.hh);
 *                 with --resume, replay an existing journal and
 *                 recompute only what is missing
 *   --cache P     content-keyed result cache file: unchanged points
 *                 keep hitting it after the grid around them changes
 *   --fsync       fsync the journal after every record (bounds crash
 *                 loss to the in-flight points)
 * Unrecognized arguments are preserved in @ref positional for
 * harness-specific parsing (e.g. systolic_explorer's shape).
 */
struct HarnessArgs {
    unsigned threads = 0;
    std::string csvPath;
    std::string jsonPath;
    bool noWall = false;
    sim::Backend backend = sim::Backend::Auto;
    std::string journalPath;
    bool resume = false;
    std::string cachePath;
    bool fsyncEachRecord = false;
    std::vector<std::string> positional;

    static HarnessArgs
    parse(int argc, char **argv)
    {
        HarnessArgs a;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "missing value for %s\n",
                                 arg.c_str());
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--threads") {
                std::string v = next();
                char *end = nullptr;
                long n = std::strtol(v.c_str(), &end, 10);
                if (n <= 0 || end == v.c_str() || *end != '\0') {
                    std::fprintf(stderr,
                                 "--threads expects a positive "
                                 "integer, got '%s'\n",
                                 v.c_str());
                    std::exit(2);
                }
                a.threads = static_cast<unsigned>(n);
            }
            else if (arg == "--csv")
                a.csvPath = next();
            else if (arg == "--json")
                a.jsonPath = next();
            else if (arg == "--no-wall")
                a.noWall = true;
            else if (arg == "--journal")
                a.journalPath = next();
            else if (arg == "--resume")
                a.resume = true;
            else if (arg == "--cache")
                a.cachePath = next();
            else if (arg == "--fsync")
                a.fsyncEachRecord = true;
            else if (arg == "--backend") {
                std::string v = next();
                if (v == "interp")
                    a.backend = sim::Backend::Interp;
                else if (v == "compiled")
                    a.backend = sim::Backend::Compiled;
                else {
                    std::fprintf(stderr,
                                 "--backend expects 'interp' or "
                                 "'compiled', got '%s'\n",
                                 v.c_str());
                    std::exit(2);
                }
            }
            else if (arg.rfind("--", 0) == 0) {
                std::fprintf(stderr, "unknown option '%s'\n",
                             arg.c_str());
                std::exit(2);
            } else
                a.positional.push_back(std::move(arg));
        }
        return a;
    }

    sweep::RunnerOptions
    runnerOptions() const
    {
        sweep::RunnerOptions o;
        o.threads = threads;
        return o;
    }

    sim::EngineOptions
    engineOptions() const
    {
        sim::EngineOptions o;
        o.backend = backend;
        return o;
    }

    /** The durability knobs as runJournaledSweep options. @p salt
     *  names this harness's sweep identity (harness name + fixed
     *  config), so a journal from a different figure refuses to
     *  resume even when the grids coincide. */
    sweep::JournalOptions
    journalOptions(const std::string &salt) const
    {
        sweep::JournalOptions o;
        o.journalPath = journalPath;
        o.resume = resume;
        o.cachePath = cachePath;
        o.fsyncEachRecord = fsyncEachRecord;
        o.salt = salt;
        return o;
    }

    /** True when any durability flag asks for the journaled path. */
    bool
    wantsDurability() const
    {
        return !journalPath.empty() || !cachePath.empty();
    }

    /** Print @p table to stdout and write any requested CSV/JSON.
     *  With --no-wall, wall-clock columns (by convention named with an
     *  `_s` seconds suffix) are dropped, leaving only deterministic
     *  simulated metrics — tables then compare byte-identically across
     *  thread counts and machines. */
    void
    emit(const sweep::Table &table) const
    {
        if (noWall) {
            emitAll(table.filterColumns([](const sweep::Column &c) {
                const std::string suffix = "_s";
                return c.name.size() < suffix.size() ||
                       c.name.compare(c.name.size() - suffix.size(),
                                      suffix.size(), suffix) != 0;
            }));
        } else {
            emitAll(table);
        }
    }

  private:
    void
    emitAll(const sweep::Table &out) const
    {
        out.emitText(std::cout);
        auto writeFile = [&](const std::string &path, bool json) {
            std::ofstream f(path);
            if (json)
                out.emitJson(f);
            else
                out.emitCsv(f);
            f.flush();
            if (!f) {
                std::fprintf(stderr, "failed to write %s\n",
                             path.c_str());
                std::exit(1);
            }
            std::printf("# wrote %s\n", path.c_str());
        };
        if (!csvPath.empty())
            writeFile(csvPath, /*json=*/false);
        if (!jsonPath.empty())
            writeFile(jsonPath, /*json=*/true);
    }
};

/**
 * Run a harness sweep with the crash-safety layer when the user asked
 * for it (--journal/--cache), else the plain SweepRunner path —
 * byte-identical tables either way for deterministic columns
 * (wall-clock columns replay recorded values; --no-wall drops them
 * before comparison, as always).
 *
 * The content key of a point is @p salt plus its axis values in grid
 * order — enough identity for a harness whose fixed config is folded
 * into the salt. A refused journal (header mismatch, mid-file
 * corruption) exits with eqsweep's structured-error discipline rather
 * than silently recomputing: exit 3 = journal_header_mismatch,
 * 4 = journal_corrupt, 1 = I/O.
 */
inline sweep::Table
runSweep(const HarnessArgs &args, const sweep::SweepRunner &runner,
         const std::vector<sweep::Point> &points,
         std::vector<sweep::Column> schema, const std::string &salt,
         const sweep::SweepRunner::RowFn &fn)
{
    if (!args.wantsDurability())
        return runner.run(points, std::move(schema), fn);

    auto keyFn = [&salt](const sweep::Point &p) {
        std::string key = salt;
        for (int64_t v : p.values()) {
            key += ' ';
            key += std::to_string(v);
        }
        return key;
    };
    sweep::Table table{schema};
    sweep::ResumeStats stats;
    std::string err;
    sweep::JournalStatus status = sweep::runJournaledSweep(
        runner, points, std::move(schema), keyFn, fn,
        args.journalOptions(salt), args.engineOptions(), &table,
        &stats, &err);
    if (status != sweep::JournalStatus::Ok) {
        std::fprintf(stderr, "error: {\"code\":\"%s\"}: %s\n",
                     sweep::journalStatusName(status), err.c_str());
        switch (status) {
        case sweep::JournalStatus::HeaderMismatch: std::exit(3);
        case sweep::JournalStatus::Corrupt: std::exit(4);
        default: std::exit(1);
        }
    }
    std::fprintf(stderr,
                 "# resume: computed=%zu journal=%zu cache=%zu "
                 "truncated_bytes=%llu\n",
                 stats.computed, stats.fromJournal, stats.fromCache,
                 static_cast<unsigned long long>(
                     stats.journalTruncatedBytes));
    return table;
}

/** The dataflow axis every systolic sweep shares (axis value -> df). */
inline scalesim::Dataflow
dataflowFromAxis(int64_t v)
{
    switch (v) {
    case 0: return scalesim::Dataflow::WS;
    case 1: return scalesim::Dataflow::IS;
    default: return scalesim::Dataflow::OS;
    }
}

} // namespace bench
} // namespace eq

#endif // EQ_BENCH_BENCH_UTIL_HH
