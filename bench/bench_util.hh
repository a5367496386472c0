/**
 * @file
 * Shared helpers for the experiment harnesses, built on the sweep
 * subsystem (src/sweep/) and the serve::SweepWorkers session pool:
 * the common command-line surface (--threads/--csv/--json) every
 * harness exposes and the journaled sweep driver behind it.
 */

#ifndef EQ_BENCH_BENCH_UTIL_HH
#define EQ_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/stringutil.hh"
#include "serve/models.hh"
#include "sim/engine.hh"
#include "sweep/grid.hh"
#include "sweep/journal.hh"
#include "sweep/runner.hh"
#include "sweep/table.hh"

namespace eq {
namespace bench {

/** Average SRAM (ofmap) write bandwidth of a systolic run, in bytes
 *  per simulated cycle. */
inline double
ofmapWriteBw(const sim::SimReport &report)
{
    return serve::sramTraffic(report).writeBytes /
           std::max<double>(1.0, double(report.cycles));
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
    sweep::JournalOptions durability;
    std::string program; ///< argv[0]'s basename, for error lines
    std::vector<std::string> positional;

    static HarnessArgs
    parse(int argc, char **argv)
    {
        HarnessArgs a;
        a.program = argv[0];
        a.program = a.program.substr(a.program.rfind('/') + 1);
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
                if (!parseInt(v, 1u, &a.threads)) {
                    std::fprintf(stderr,
                                 "--threads expects a positive "
                                 "integer, got '%s'\n",
                                 v.c_str());
                    std::exit(2);
                }
            }
            else if (arg == "--csv")
                a.csvPath = next();
            else if (arg == "--json")
                a.jsonPath = next();
            else if (arg == "--no-wall")
                a.noWall = true;
            else if (arg == "--journal")
                a.durability.journalPath = next();
            else if (arg == "--resume")
                a.durability.resume = true;
            else if (arg == "--cache")
                a.durability.cachePath = next();
            else if (arg == "--fsync")
                a.durability.fsyncEachRecord = true;
            else if (arg == "--backend") {
                std::string v = next();
                if (!sim::backendFromName(v, &a.backend) ||
                    a.backend == sim::Backend::Auto) {
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
 * Run a harness sweep through runJournaledSweep: with no --journal or
 * --cache that is the plain SweepRunner path, and with them the
 * crash-safety layer — byte-identical tables either way for
 * deterministic columns (wall-clock columns replay recorded values;
 * --no-wall drops them before comparison, as always).
 *
 * @p salt names this harness's sweep identity (harness name + fixed
 * config), so a journal from a different figure refuses to resume even
 * when the grids coincide. The content key of a point is @p salt plus
 * its axis values in grid order. A refused journal (header mismatch,
 * mid-file corruption) exits with eqsweep's structured error line and
 * exit code (sweep::printError, sweep::exitCodeFor) rather than
 * silently recomputing.
 */
inline sweep::Table
runSweep(const HarnessArgs &args, const sweep::SweepRunner &runner,
         const std::vector<sweep::Point> &points,
         std::vector<sweep::Column> schema, const std::string &salt,
         const sweep::SweepRunner::RowFn &fn)
{
    auto keyFn = [&salt](const sweep::Point &p) {
        std::string key = salt;
        for (int64_t v : p.values()) {
            key += ' ';
            key += std::to_string(v);
        }
        return key;
    };
    const sweep::RowLogHeader identity = sweep::gridIdentity(
        points, schema, salt, args.engineOptions());
    sweep::Table table{schema};
    sweep::ResumeStats stats;
    std::string err;
    sweep::JournalStatus status = sweep::runJournaledSweep(
        runner, points, std::move(schema), keyFn, fn, args.durability,
        identity, &table, &stats, &err);
    if (status != sweep::JournalStatus::Ok) {
        sweep::printError(args.program, sweep::journalStatusName(status),
                          err);
        std::exit(sweep::exitCodeFor(status));
    }
    if (!args.durability.journalPath.empty() ||
        !args.durability.cachePath.empty())
        sweep::printResumeStats(stats);
    return table;
}

} // namespace bench
} // namespace eq

#endif // EQ_BENCH_BENCH_UTIL_HH
