/**
 * @file
 * eqsweep: the crash-safe sweep driver.
 *
 * Three modes over one serializable SweepSpec:
 *   (default)    run the whole grid, optionally journaled
 *                (--journal/--resume) and cached (--cache)
 *   --shard K/N  run stripe K (0-based) of N of the dense points into
 *                --journal as its own process, always resumed; rows
 *                are journaled under the whole grid's identity
 *   --merge J    (repeatable) merge shard journals into one table,
 *                byte-identical to a single-process run
 *
 * Every mode takes the same spec arguments and --backend: the journal
 * header pins the sweep they describe, so a shard resumed or merged
 * under another spec or backend is refused, never silently mixed.
 *
 * Failures speak the sweep layer's structured vocabulary on stderr
 * (sweep::printError) —
 *   eqsweep: error: {"code":"journal_header_mismatch","message":...}
 * — and the exit code mirrors it: 0 ok, 1 I/O, 2 usage, 3 header
 * mismatch, 4 corrupt journal (sweep::exitCodeFor), 5 incomplete
 * merge, 6 a point failed (point_failed, "point <i>: ..."). Dispatch
 * scripts branch on these, never on prose.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/fsutil.hh"
#include "base/stringutil.hh"
#include "serve/models.hh"
#include "sweep/journal.hh"

using namespace eq;

namespace {

// 1, 3 and 4 are sweep::exitCodeFor's refusal codes.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIncomplete = 5;
constexpr int kExitPointFailed = 6;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "spec (pick one):\n"
        "  --spec FILE          sweep spec JSON ({model, config, axes})\n"
        "  --model NAME         systolic|soc|pipeline, with\n"
        "    --config JSON        base-config overrides (optional)\n"
        "    --axis NAME=V1,V2    sweep axis (repeatable, in order)\n"
        "execution:\n"
        "  --threads N          worker threads (default "
        "$EQ_SWEEP_THREADS)\n"
        "  --backend MODE       auto|interp|compiled (default auto)\n"
        "durability:\n"
        "  --journal PATH       journal completed points to PATH\n"
        "  --resume             replay an existing journal first\n"
        "  --cache PATH         content-keyed result cache file\n"
        "  --fsync              fsync the journal after every record\n"
        "sharding (same spec and --backend for every shard and merge):\n"
        "  --shard K/N          run stripe K (0-based) of N into\n"
        "                       --journal, always resumed\n"
        "  --merge JOURNAL      merge shard journals to one table\n"
        "                       (repeatable)\n"
        "output:\n"
        "  --csv PATH           write the table as CSV to PATH\n"
        "                       (atomic; default: stdout)\n",
        argv0);
}

int
refuse(sweep::JournalStatus status, const std::string &message)
{
    sweep::printError("eqsweep", sweep::journalStatusName(status),
                      message);
    return sweep::exitCodeFor(status);
}

int
emitTable(const sweep::Table &table, const std::string &csv_path)
{
    if (csv_path.empty()) {
        std::fputs(table.csv().c_str(), stdout);
        return kExitOk;
    }
    std::string err;
    if (!fs::writeFileAtomic(csv_path, table.csv(), &err))
        return refuse(sweep::JournalStatus::IoError, err);
    return kExitOk;
}

struct Args {
    std::string specPath;
    std::string model;
    std::string configJson;
    std::vector<std::string> axisSpecs;
    unsigned threads = 0;
    sim::EngineOptions engine;
    sweep::JournalOptions durability;
    uint64_t shardK = 0; ///< --shard K/N; N = 0 runs the whole grid
    uint64_t shardN = 0;
    std::vector<std::string> mergeJournals;
    std::string csvPath;
};

/** Build the spec from --spec or --model/--config/--axis. */
bool
buildSpec(const Args &args, serve::SweepSpec *spec, std::string *err)
{
    serve::Json request;
    if (!args.specPath.empty()) {
        std::string text;
        if (!fs::readFile(args.specPath, &text, err))
            return false;
        std::string perr;
        if (!serve::Json::parse(text, &request, &perr)) {
            *err = args.specPath + ": " + perr;
            return false;
        }
    } else {
        request = serve::Json::object();
        request.set("model", args.model);
        if (!args.configJson.empty()) {
            serve::Json config;
            std::string perr;
            if (!serve::Json::parse(args.configJson, &config, &perr)) {
                *err = "--config: " + perr;
                return false;
            }
            request.set("config", std::move(config));
        }
        serve::Json axes = serve::Json::array();
        for (const std::string &text : args.axisSpecs) {
            serve::SweepAxis axis;
            if (!serve::parseAxis(text, &axis)) {
                *err = "bad --axis '" + text +
                       "' (want name=v1,v2,...)";
                return false;
            }
            serve::Json ja = serve::Json::object();
            ja.set("name", axis.name);
            serve::Json vals = serve::Json::array();
            for (int64_t v : axis.values)
                vals.push(v);
            ja.set("values", std::move(vals));
            axes.push(std::move(ja));
        }
        request.set("axes", std::move(axes));
    }
    return serve::SweepSpec::fromJson(request, spec, err);
}

/** "K/N" with K in [0, N). */
bool
parseShard(const std::string &text, uint64_t *k, uint64_t *n)
{
    const size_t slash = text.find('/');
    return slash != std::string::npos &&
           parseInt(text.substr(slash + 1), uint64_t{1}, n) &&
           parseInt(text.substr(0, slash), uint64_t{0}, k) && *k < *n;
}

int
runSweep(const Args &args, const serve::SweepSpec &spec)
{
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();
    const sweep::RowLogHeader identity = sweep::gridIdentity(
        points, spec.schema(), spec.saltString(), args.engine);
    sweep::JournalOptions opts = args.durability;
    if (args.shardN > 0) {
        const auto [begin, end] =
            sweep::shardStripe(points.size(), args.shardK, args.shardN);
        points.erase(points.begin() + ptrdiff_t(end), points.end());
        points.erase(points.begin(), points.begin() + ptrdiff_t(begin));
        opts.resume = true; // relaunch after a kill is the normal case
    }

    sweep::Table table{spec.schema()};
    sweep::ResumeStats stats;
    std::string err;
    sweep::JournalStatus status;
    try {
        status = serve::runLocalSweepDurable(spec, points, args.threads,
                                             args.engine, opts, identity,
                                             &table, &stats, &err);
    } catch (const sweep::PointFailed &e) {
        sweep::printError("eqsweep", "point_failed", e.what());
        return kExitPointFailed;
    }
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    sweep::printResumeStats(stats);
    return emitTable(table, args.csvPath);
}

int
mergeMode(const Args &args, const serve::SweepSpec &spec)
{
    const sweep::RowLogHeader expect = sweep::gridIdentity(
        spec.grid().points(), spec.schema(), spec.saltString(),
        args.engine);
    sweep::Table table{spec.schema()};
    std::vector<uint64_t> missing;
    std::string err;
    sweep::JournalStatus status = sweep::mergeShardJournals(
        args.mergeJournals, expect, spec.schema(), &table, &missing,
        &err);
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    if (!missing.empty()) {
        sweep::printError("eqsweep", "incomplete_merge",
                          std::to_string(missing.size()) + " of " +
                              std::to_string(expect.numPoints) +
                              " points missing (first: " +
                              std::to_string(missing.front()) + ")");
        return kExitIncomplete;
    }
    return emitTable(table, args.csvPath);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "eqsweep: %s needs a value\n",
                             arg.c_str());
                std::exit(kExitUsage);
            }
            return argv[++i];
        };
        if (arg == "--spec") {
            args.specPath = value();
        } else if (arg == "--model") {
            args.model = value();
        } else if (arg == "--config") {
            args.configJson = value();
        } else if (arg == "--axis") {
            args.axisSpecs.push_back(value());
        } else if (arg == "--threads") {
            if (!parseInt(value(), 0u, &args.threads)) {
                std::fprintf(stderr, "eqsweep: bad --threads\n");
                return kExitUsage;
            }
        } else if (arg == "--backend") {
            const std::string mode = value();
            if (!sim::backendFromName(mode, &args.engine.backend)) {
                std::fprintf(stderr, "eqsweep: bad --backend '%s'\n",
                             mode.c_str());
                return kExitUsage;
            }
        } else if (arg == "--journal") {
            args.durability.journalPath = value();
        } else if (arg == "--resume") {
            args.durability.resume = true;
        } else if (arg == "--cache") {
            args.durability.cachePath = value();
        } else if (arg == "--fsync") {
            args.durability.fsyncEachRecord = true;
        } else if (arg == "--shard") {
            if (!parseShard(value(), &args.shardK, &args.shardN)) {
                std::fprintf(stderr, "eqsweep: bad --shard (want K/N, "
                                     "0 <= K < N)\n");
                return kExitUsage;
            }
        } else if (arg == "--merge") {
            args.mergeJournals.push_back(value());
        } else if (arg == "--csv") {
            args.csvPath = value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return kExitOk;
        } else {
            std::fprintf(stderr, "eqsweep: unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return kExitUsage;
        }
    }

    if (args.shardN > 0 && args.durability.journalPath.empty()) {
        sweep::printError("eqsweep", "usage", "--shard needs --journal");
        return kExitUsage;
    }
    if (args.shardN > 0 && !args.mergeJournals.empty()) {
        sweep::printError("eqsweep", "usage",
                          "--shard and --merge are separate runs");
        return kExitUsage;
    }
    if (args.specPath.empty() && args.model.empty()) {
        usage(argv[0]);
        return kExitUsage;
    }
    serve::SweepSpec spec;
    std::string err;
    if (!buildSpec(args, &spec, &err)) {
        sweep::printError("eqsweep", "usage", err);
        return kExitUsage;
    }
    if (!args.mergeJournals.empty())
        return mergeMode(args, spec);
    return runSweep(args, spec);
}
