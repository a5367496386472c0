/**
 * @file
 * eqsweep: the crash-safe sweep driver.
 *
 * Four modes over one serializable SweepSpec:
 *   (default)      run the whole grid, optionally journaled
 *                  (--journal/--resume) and cached (--cache)
 *   --emit-shards  write spec.json + per-shard manifests into a dir
 *   --shard M      run one manifest's dense range [begin, end) as its
 *                  own process: always resumable, heartbeating after
 *                  every computed point
 *   --merge DIR    merge the dir's shard journals into one table,
 *                  byte-identical to a single-process run
 *
 * Failures speak the sweep layer's structured vocabulary on stderr
 * (sweep::printError) —
 *   eqsweep: error: {"code":"journal_header_mismatch","message":...}
 * — and the exit code mirrors it: 0 ok, 1 I/O, 2 usage, 3 header
 * mismatch, 4 corrupt journal (sweep::exitCodeFor), 5 incomplete
 * merge. Dispatch scripts branch on these, never on prose.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "base/fsutil.hh"
#include "base/stringutil.hh"
#include "serve/models.hh"
#include "sweep/shard.hh"

using namespace eq;

namespace {

// 1, 3 and 4 are sweep::exitCodeFor's refusal codes.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIncomplete = 5;

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
        "sharding:\n"
        "  --emit-shards N      write N shard manifests (needs a spec\n"
        "                       and --shard-dir), then exit\n"
        "  --shard-dir DIR      manifest/journal/heartbeat directory\n"
        "  --shard MANIFEST     run one shard manifest's point range\n"
        "  --merge DIR          merge DIR's shard journals to a table\n"
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
    int emitShards = 0;
    std::string shardDir;
    std::string shardManifest;
    std::string mergeDir;
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

int
runWhole(const Args &args, const serve::SweepSpec &spec)
{
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();
    sweep::Table table{spec.schema()};
    sweep::ResumeStats stats;
    std::string err;
    sweep::JournalStatus status = serve::runLocalSweepDurable(
        spec, points, args.threads, args.engine, args.durability,
        sweep::gridIdentity(points, spec.schema(), spec.saltString(),
                            args.engine),
        &table, &stats, &err);
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    sweep::printResumeStats(stats);
    return emitTable(table, args.csvPath);
}

int
emitShardsMode(const Args &args, const serve::SweepSpec &spec)
{
    if (args.shardDir.empty()) {
        sweep::printError("eqsweep", "usage",
                          "--emit-shards needs --shard-dir");
        return kExitUsage;
    }
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();
    sweep::RowLogHeader header = sweep::gridIdentity(
        points, spec.schema(), spec.saltString(), args.engine);

    const std::string specPath = args.shardDir + "/spec.json";
    std::string err;
    if (!fs::writeFileAtomic(specPath, spec.toJson().dump() + "\n",
                             &err))
        return refuse(sweep::JournalStatus::IoError, err);
    std::vector<sweep::ShardManifest> manifests =
        sweep::makeShardManifests(points.size(), args.emitShards,
                                  header, args.shardDir);
    for (const auto &m : manifests) {
        sweep::ShardManifest manifest = m;
        manifest.specPath = specPath;
        const std::string path = args.shardDir + "/shard-" +
                                 std::to_string(manifest.shard) +
                                 ".manifest.json";
        if (!manifest.save(path, &err))
            return refuse(sweep::JournalStatus::IoError, err);
        std::printf("%s\n", path.c_str());
    }
    return kExitOk;
}

int
shardMode(const Args &args)
{
    sweep::ShardManifest manifest;
    std::string err;
    if (!sweep::ShardManifest::load(args.shardManifest, &manifest,
                                    &err))
        return refuse(sweep::JournalStatus::IoError, err);

    // The manifest pins the engine mode; this process obeys it rather
    // than its own environment, so every shard of a dispatch — and
    // every relaunch of a shard — simulates identically.
    sim::EngineOptions engine = args.engine;
    if (!sim::backendFromName(manifest.header.backend, &engine.backend) ||
        engine.backend == sim::Backend::Auto)
        return refuse(sweep::JournalStatus::HeaderMismatch,
                      "manifest names unknown backend '" +
                          manifest.header.backend + "'");

    Args specArgs = args;
    specArgs.specPath = manifest.specPath;
    serve::SweepSpec spec;
    if (!buildSpec(specArgs, &spec, &err))
        return refuse(sweep::JournalStatus::IoError, err);
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();

    // A swapped spec.json must not silently journal under the old
    // manifest's identity.
    sweep::RowLogHeader expect = sweep::gridIdentity(
        points, spec.schema(), spec.saltString(), engine);
    std::string why;
    if (!manifest.header.matches(expect, &why))
        return refuse(sweep::JournalStatus::HeaderMismatch,
                      "manifest does not describe this spec: " + why);
    // load() refused a range beyond the manifest's grid, and that grid
    // is this spec's: the slice is in bounds.

    std::vector<sweep::Point> slice(
        points.begin() + ptrdiff_t(manifest.beginPoint),
        points.begin() + ptrdiff_t(manifest.endPoint));

    sweep::JournalOptions opts = args.durability;
    opts.journalPath = manifest.journalPath;
    opts.resume = true; // relaunch after a kill is the normal case

    sweep::Heartbeat heartbeat(manifest.heartbeatPath, manifest.shard);
    std::mutex beatMu;
    size_t completed = 0;
    heartbeat.beat(0);

    sweep::Table table{spec.schema()};
    sweep::ResumeStats stats;
    sweep::JournalStatus status = serve::runLocalSweepDurable(
        spec, slice, args.threads, engine, opts, expect, &table, &stats,
        &err, [&](const sweep::Point &) {
            std::lock_guard<std::mutex> lock(beatMu);
            heartbeat.beat(++completed);
        });
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    heartbeat.beat(slice.size());
    sweep::printResumeStats(stats);
    std::fprintf(stderr, "# shard %d: points [%llu, %llu) done\n",
                 manifest.shard,
                 static_cast<unsigned long long>(manifest.beginPoint),
                 static_cast<unsigned long long>(manifest.endPoint));
    return kExitOk;
}

int
mergeMode(const Args &args)
{
    // shard-0's manifest names the dispatch width; every manifest
    // repeats the full-grid header, which the merge verifies per
    // journal.
    sweep::ShardManifest first;
    std::string err;
    if (!sweep::ShardManifest::load(
            args.mergeDir + "/shard-0.manifest.json", &first, &err))
        return refuse(sweep::JournalStatus::IoError, err);
    std::vector<std::string> journals;
    for (int k = 0; k < first.numShards; ++k) {
        sweep::ShardManifest m;
        const std::string path = args.mergeDir + "/shard-" +
                                 std::to_string(k) + ".manifest.json";
        if (!sweep::ShardManifest::load(path, &m, &err))
            return refuse(sweep::JournalStatus::IoError, err);
        std::string why;
        if (!m.header.matches(first.header, &why))
            return refuse(sweep::JournalStatus::HeaderMismatch,
                          path + ": " + why);
        if (fs::fileExists(m.journalPath))
            journals.push_back(m.journalPath);
    }

    Args specArgs = args;
    specArgs.specPath = first.specPath;
    serve::SweepSpec spec;
    if (!buildSpec(specArgs, &spec, &err))
        return refuse(sweep::JournalStatus::IoError, err);

    sweep::Table table{spec.schema()};
    std::vector<uint64_t> missing;
    sweep::JournalStatus status = sweep::mergeShardJournals(
        journals, first.header, spec.schema(), &table, &missing, &err);
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    if (!missing.empty()) {
        sweep::printError("eqsweep", "incomplete_merge",
                          std::to_string(missing.size()) + " of " +
                              std::to_string(first.header.numPoints) +
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
        } else if (arg == "--emit-shards") {
            if (!parseInt(value(), 1, &args.emitShards)) {
                std::fprintf(stderr, "eqsweep: bad --emit-shards\n");
                return kExitUsage;
            }
        } else if (arg == "--shard-dir") {
            args.shardDir = value();
        } else if (arg == "--shard") {
            args.shardManifest = value();
        } else if (arg == "--merge") {
            args.mergeDir = value();
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

    if (!args.shardManifest.empty())
        return shardMode(args);
    if (!args.mergeDir.empty())
        return mergeMode(args);

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
    if (args.emitShards > 0)
        return emitShardsMode(args, spec);
    return runWhole(args, spec);
}
