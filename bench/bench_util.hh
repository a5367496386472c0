/**
 * @file
 * Shared helpers for the experiment harnesses, built on the sweep
 * subsystem (src/sweep/) and the serve::ProgramCache session pool:
 * the harness command line (the sweep layer's shared flags plus
 * --json/--no-wall) and runSweep, the journaled sweep behind it with
 * eqsweep's exit contract.
 */

#ifndef EQ_BENCH_BENCH_UTIL_HH
#define EQ_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/fsutil.hh"
#include "serve/cache.hh"
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
 * The command-line surface of the harnesses: the sweep layer's shared
 * flags (sweep::SweepFlags, parsed by the same function as eqsweep's)
 * plus
 *   --json PATH   write the result table as JSON
 *   --no-wall     omit wall-clock columns (so tables from different
 *                 thread counts / machines compare byte-identically)
 * A harness accepts only the flags that take effect in it; the others
 * exit 2 as unknown options. One that runs its sweep through runSweep
 * takes them all (kSweepFlags): --threads, --backend (overrides
 * EQ_SIM_BACKEND; results are identical, only wall time differs),
 * --journal, --cache, --fsync, --csv, --json and --no-wall. Non-flag
 * arguments are kept in @ref positional for harness-specific parsing
 * (e.g. systolic_explorer's shape).
 */
struct HarnessArgs {
    static inline const std::set<std::string> kSweepFlags = {
        "--threads", "--backend", "--journal", "--cache",
        "--fsync",   "--csv",     "--json",    "--no-wall"};

    sweep::SweepFlags flags;
    std::string jsonPath;
    bool noWall = false;
    std::string program; ///< argv[0]'s basename, for error lines
    std::vector<std::string> positional;

    static HarnessArgs
    parse(int argc, char **argv,
          const std::set<std::string> &accepted = kSweepFlags)
    {
        HarnessArgs a;
        a.program = argv[0];
        a.program = a.program.substr(a.program.rfind('/') + 1);
        auto usage = [&](const std::string &why) {
            sweep::printError(a.program, "usage", why);
            std::exit(2);
        };
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                a.positional.push_back(std::move(arg));
                continue;
            }
            if (!accepted.count(arg))
                usage("unknown option '" + arg + "'");
            switch (a.flags.parse(a.program, argc, argv, &i)) {
            case sweep::SweepFlags::Parse::Taken: continue;
            case sweep::SweepFlags::Parse::Bad: std::exit(2);
            case sweep::SweepFlags::Parse::NotShared: break;
            }
            if (arg == "--no-wall")
                a.noWall = true;
            else if (i + 1 < argc)
                a.jsonPath = argv[++i];
            else
                usage("--json needs a value");
        }
        return a;
    }

    /** Print @p table to stdout and write any requested CSV/JSON
     *  (atomically, fs::writeFileAtomic). With --no-wall, wall-clock
     *  columns (by convention named with an `_s` seconds suffix) are
     *  dropped, leaving only deterministic simulated metrics — tables
     *  then compare byte-identically across thread counts and
     *  machines. */
    void
    emit(const sweep::Table &table) const
    {
        const sweep::Table out =
            !noWall ? table : table.filterColumns([](const sweep::Column &c) {
                const std::string suffix = "_s";
                return c.name.size() < suffix.size() ||
                       c.name.compare(c.name.size() - suffix.size(),
                                      suffix.size(), suffix) != 0;
            });
        out.emitText(std::cout);
        std::ostringstream json;
        if (!jsonPath.empty())
            out.emitJson(json);
        for (const auto &[path, text] : {std::pair(flags.csvPath, out.csv()),
                                         std::pair(jsonPath, json.str())}) {
            if (path.empty())
                continue;
            std::string err;
            if (!fs::writeFileAtomic(path, text, &err)) {
                sweep::printError(program, "io_error", err);
                std::exit(1);
            }
            std::printf("# wrote %s\n", path.c_str());
        }
    }
};

/**
 * Run a harness sweep through sweep::runSweepCommand, the exit
 * contract eqsweep answers with: with no --journal or --cache that is
 * the plain SweepRunner path, and with them the crash-safety layer —
 * byte-identical tables either way for deterministic columns
 * (wall-clock columns replay recorded values; --no-wall drops them
 * before comparison, as always). A journal of this sweep already at
 * the path is replayed, so rerunning a journaled command recomputes
 * nothing; to re-measure the wall-clock columns, delete the journal.
 *
 * @p salt names this harness's sweep identity (harness name + fixed
 * config), so a journal from a different figure is refused even when
 * the grids coincide. The content key of a point is @p salt plus its
 * axis values in grid order. A refused journal, an I/O failure or a
 * point that throws ends the process with the structured error line
 * and exit code (1, 3, 4 or 6) instead of a table.
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
    const sweep::RowLogHeader identity =
        sweep::gridIdentity(points, schema, salt, args.flags.engine);
    sweep::Table table{schema};
    const sweep::JournalOptions &opts = args.flags.durability;
    if (int code = sweep::runSweepCommand(
            args.program, opts,
            [&](sweep::ResumeStats *stats, std::string *err) {
                return sweep::runJournaledSweep(runner, points, schema,
                                                keyFn, fn, opts, identity,
                                                &table, stats, err);
            }))
        std::exit(code);
    return table;
}

} // namespace bench
} // namespace eq

#endif // EQ_BENCH_BENCH_UTIL_HH
