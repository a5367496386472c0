/**
 * @file
 * eqsweep: the sweep command line, in-process or served.
 *
 * Two modes over one serializable SweepSpec:
 *   (default)       run the whole grid in-process on --threads worker
 *                   threads, optionally journaled (--journal) and
 *                   cached (--cache)
 *   --connect H:P   run the spec on an eqserved daemon through
 *                   serve::Client::sweepTable (--retries N attempts,
 *                   --deadline MS per request): the same CSV again
 *
 * There is one journal mode: a journal already at the path is always
 * recovered, so rerunning a killed command replays it and recomputes
 * only what is missing. Its header pins the spec and --backend, so a
 * journal of another sweep is refused, left byte-identical, never
 * mixed. --connect runs no journal yet: the in-process flags are
 * usage errors beside it.
 *
 * Failures print one structured line on stderr (sweep::printError) —
 *   eqsweep: error: {"code":"journal_header_mismatch","message":...}
 * — and exit with the code's exit status. Both come from the failure
 * table (base/failure.hh): usage 2, journal_header_mismatch 3,
 * journal_corrupt 4, point_failed 6 ("point <i>: ..."), and 1 for
 * io_error and for a failed served sweep (whose code is the daemon's,
 * or io_error for the transport). Scripts branch on these, never on
 * prose.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "base/fsutil.hh"
#include "base/stringutil.hh"
#include "serve/client.hh"
#include "serve/models.hh"
#include "sweep/journal.hh"

using namespace eq;

namespace {

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
        "  --threads N          worker threads, N >= 1 (default "
        "$EQ_SWEEP_THREADS)\n"
        "  --backend MODE       auto|interp|compiled (default auto)\n"
        "durability (a journal already at PATH is replayed; one of\n"
        "another sweep is refused and left as it was):\n"
        "  --journal PATH       journal completed points to PATH\n"
        "  --cache PATH         content-keyed result cache file\n"
        "  --fsync              fsync the journal after every record\n"
        "served (none of the flags above but the spec):\n"
        "  --connect HOST:PORT  run the sweep on an eqserved daemon\n"
        "  --retries N          attempts per request (default 1)\n"
        "  --deadline MS        deadline_ms of each request\n"
        "output:\n"
        "  --csv PATH           write the table as CSV to PATH\n"
        "                       (atomic; default: stdout)\n",
        argv0);
}

/** Print the structured error line for @p code; returns its exit
 *  code. */
int
fail(ErrorCode code, const std::string &message)
{
    return sweep::printError("eqsweep", code, message);
}

int
usageError(const std::string &message)
{
    return fail(ErrorCode::Usage, message);
}

/** The table as CSV on stdout, or atomically in @p csv_path. */
int
emitTable(const sweep::Table &table, const std::string &csv_path)
{
    std::string err;
    if (csv_path.empty())
        std::fputs(table.csv().c_str(), stdout);
    else if (!fs::writeFileAtomic(csv_path, table.csv(), &err))
        return fail(ErrorCode::IoError, err);
    return 0;
}

struct Args {
    std::string specPath;
    std::string model;
    std::string configJson;
    std::vector<std::string> axisSpecs;
    sweep::SweepFlags flags;
    std::string connect; ///< HOST:PORT; empty = in-process
    int retries = 1;
    int64_t deadlineMs = -1; ///< -1 = no deadline
    std::set<std::string> given; ///< every flag on the command line
};

/** Build the spec from --spec or --model/--config/--axis. */
bool
buildSpec(const Args &args, serve::SweepSpec *spec, std::string *err)
{
    std::string text;
    serve::Json json;
    if (!args.specPath.empty()) {
        if (!fs::readFile(args.specPath, &text, err))
            return false;
        if (!serve::Json::parse(text, &json, err)) {
            *err = args.specPath + ": " + *err;
            return false;
        }
        return serve::SweepSpec::fromJson(json, spec, err);
    }
    serve::ModelKind kind;
    if (!serve::modelFromName(args.model, &kind)) {
        *err = "unknown model '" + args.model + "'";
        return false;
    }
    if (!args.configJson.empty() &&
        !serve::Json::parse(args.configJson, &json, err)) {
        *err = "--config: " + *err;
        return false;
    }
    if (!serve::modelKeyFromJson(kind, json, &spec->base, err))
        return false;
    for (const std::string &axis : args.axisSpecs) {
        spec->axes.emplace_back();
        if (!serve::parseAxis(axis, &spec->axes.back())) {
            *err = "bad --axis '" + axis + "' (want name=v1,v2,...)";
            return false;
        }
    }
    return spec->validate(err);
}

int
runSweep(const Args &args, const serve::SweepSpec &spec)
{
    sweep::Table table{spec.schema()};
    const sweep::JournalOptions &opts = args.flags.durability;
    if (int code = sweep::runSweepCommand(
            "eqsweep", opts, [&](sweep::ResumeStats *st, std::string *err) {
                return serve::runLocalSweepDurable(
                    spec, spec.grid(), args.flags, {}, &table, st, err);
            }))
        return code;
    return emitTable(table, args.flags.csvPath);
}

int
connectMode(const Args &args, const serve::SweepSpec &spec)
{
    std::string host;
    uint16_t port = 0;
    if (!serve::parseHostPort(args.connect, &host, &port))
        return usageError("bad --connect '" + args.connect +
                          "' (want host:port)");
    serve::Client client;
    serve::RetryPolicy policy;
    policy.maxAttempts = args.retries;
    client.setRetryPolicy(policy);
    sweep::Table table{spec.schema()};
    serve::ErrorInfo failure;
    // A refused connect is a transport failure (io_error) like any
    // other: with retries left, the retry loop reconnects.
    if ((!client.connect(host, port, &failure.message) &&
         args.retries == 1) ||
        !client.sweepTable(spec, &table, &failure, args.deadlineMs))
        return fail(failure.code, failure.message);
    return emitTable(table, args.flags.csvPath);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        args.given.insert(arg);
        switch (args.flags.parse("eqsweep", argc, argv, &i)) {
        case sweep::SweepFlags::Parse::Taken: continue;
        case sweep::SweepFlags::Parse::Bad:
            return exitCodeFor(ErrorCode::Usage);
        case sweep::SweepFlags::Parse::NotShared: break;
        }
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        static const std::set<std::string> kValued = {
            "--spec",    "--model",   "--config",  "--axis",
            "--connect", "--retries", "--deadline"};
        if (!kValued.count(arg)) {
            usage(argv[0]);
            return usageError("unknown option '" + arg + "'");
        }
        if (i + 1 >= argc)
            return usageError(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--spec") {
            args.specPath = value;
        } else if (arg == "--model") {
            args.model = value;
        } else if (arg == "--config") {
            args.configJson = value;
        } else if (arg == "--axis") {
            args.axisSpecs.push_back(value);
        } else if (arg == "--connect") {
            args.connect = value;
        } else if (arg == "--retries") {
            if (!parseInt(value, 1, &args.retries))
                return usageError("bad --retries '" + value + "'");
        } else if (!parseInt(value, int64_t{0}, &args.deadlineMs)) {
            return usageError("bad --deadline '" + value + "'");
        }
    }

    for (const char *flag :
         {"--journal", "--cache", "--fsync", "--threads", "--backend"})
        if (args.given.count("--connect") && args.given.count(flag))
            return usageError(std::string(flag) +
                              " does not apply to --connect");
    for (const char *flag : {"--retries", "--deadline"})
        if (args.given.count(flag) && args.connect.empty())
            return usageError(std::string(flag) + " needs --connect");
    if (args.specPath.empty() && args.model.empty()) {
        usage(argv[0]);
        return exitCodeFor(ErrorCode::Usage);
    }
    serve::SweepSpec spec;
    std::string err;
    if (!buildSpec(args, &spec, &err))
        return usageError(err);
    if (!args.connect.empty())
        return connectMode(args, spec);
    return runSweep(args, spec);
}
