/**
 * @file
 * Shared helpers for the experiment harnesses: the harness command
 * line (the sweep layer's shared flags plus --json/--no-wall) and
 * runSweep, which hands a harness's spec, schema and row function to
 * serve::runLocalSweepDurable, eqsweep's in-process driver, and exits
 * with eqsweep's exit codes. The driver builds the runner and the
 * session pool and derives the journal salt and content keys from
 * the configs a harness runs; a harness writes none of them.
 */

#ifndef EQ_BENCH_BENCH_UTIL_HH
#define EQ_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/fsutil.hh"
#include "serve/models.hh"
#include "sim/engine.hh"
#include "sweep/grid.hh"
#include "sweep/journal.hh"
#include "sweep/runner.hh"
#include "sweep/table.hh"

namespace eq {
namespace bench {

/** The Fig. 9 schema: the swept dimension (@p label, e.g. "4x4"),
 *  EQueue vs SCALE-Sim cycles and average SRAM ofmap write bandwidth
 *  (bytes per simulated cycle), then wall seconds of the engine build
 *  (the program cache's rebuild, 0 when a point reused a program), of
 *  the engine run and of the scalesim::simulate call. */
inline std::vector<sweep::Column>
fig9Schema(const std::string &label)
{
    return {{label, sweep::ValueKind::Str, 8, 0},
            {"eq_cycles", sweep::ValueKind::Int, 12, 0},
            {"ss_cycles", sweep::ValueKind::Int, 12, 0},
            {"eq_ofmap_wr_bw", sweep::ValueKind::Real, 16, 4},
            {"ss_ofmap_wr_bw", sweep::ValueKind::Real, 16, 4},
            {"eq_build_s", sweep::ValueKind::Real, 12, 4},
            {"eq_wall_s", sweep::ValueKind::Real, 12, 4},
            {"ss_wall_s", sweep::ValueKind::Real, 12, 6}};
}

/** The fig9Schema row of the systolic config @p handle pins, with
 *  @p size (a square dimension) as its label. */
inline std::vector<sweep::Cell>
fig9Row(int64_t size, serve::ProgramCache::Handle &handle)
{
    const sim::SimReport report = handle.run();
    const auto t0 = std::chrono::steady_clock::now();
    const scalesim::Result ss = scalesim::simulate(handle.key().systolic);
    const double ss_wall = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    return {std::to_string(size) + "x" + std::to_string(size),
            static_cast<int64_t>(report.cycles),
            static_cast<int64_t>(ss.cycles),
            serve::sramTraffic(report).writeBytes /
                std::max<double>(1.0, double(report.cycles)),
            ss.avgOfmapWriteBw,
            handle.buildSeconds(),
            report.wallSeconds,
            ss_wall};
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

    /** The worker threads a harness sweep of @p num_points runs on. */
    unsigned
    threadsFor(size_t num_points) const
    {
        return sweep::SweepRunner({flags.threads}).threadsFor(num_points);
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
 * Run a harness sweep of @p spec over @p grid (spec.grid(), possibly
 * filtered) through serve::runLocalSweepDurable, the driver behind
 * eqsweep, and answer with eqsweep's exit contract
 * (sweep::runSweepCommand). With no --journal or --cache that is the
 * plain SweepRunner path; with them, the crash-safety layer —
 * byte-identical tables either way for deterministic columns
 * (wall-clock columns replay recorded values; --no-wall drops them
 * before comparison, as always). A journal of this sweep already at
 * the path is replayed, so rerunning a journaled command recomputes
 * nothing; to re-measure the wall-clock columns, delete the journal.
 *
 * The harness's program name tags the sweep (serve::SweepRows::tag):
 * each point's content key is it plus the ModelKey the point
 * simulates (@p key, default spec.keyAt), and the journal is salted
 * with the content keys of every point. A journal of another harness,
 * of another fixed config or of another key rule is refused, and
 * cache rows of another config miss. A refused journal, an I/O failure or a point that throws ends
 * the process with the structured error line and exit code (1, 3, 4
 * or 6) instead of a table.
 */
inline sweep::Table
runSweep(const HarnessArgs &args, const serve::SweepSpec &spec,
         const sweep::Grid &grid,
         std::vector<sweep::Column> schema, serve::SweepRows::RowFn row,
         serve::SweepRows::KeyFn key = {})
{
    const serve::SweepRows rows{args.program + " ", std::move(schema),
                                std::move(row), std::move(key)};
    sweep::Table table{rows.schema};
    if (int code = sweep::runSweepCommand(
            args.program, args.flags.durability,
            [&](sweep::ResumeStats *stats, std::string *err) {
                return serve::runLocalSweepDurable(spec, grid, args.flags,
                                                   rows, &table, stats, err);
            }))
        std::exit(code);
    return table;
}

} // namespace bench
} // namespace eq

#endif // EQ_BENCH_BENCH_UTIL_HH
