/**
 * @file
 * eqserved: the simulation-as-a-service daemon. Binds, prints one
 * "listening" line (and optionally writes the bound port to a file for
 * scripts using an ephemeral port), then serves until a client sends
 * {"op":"shutdown"} or the process receives SIGINT/SIGTERM.
 *
 * Failures print one structured line on stderr, as eqsweep's do:
 * `eqserved: error: {"code":"...","message":"..."}`, and exit with the
 * code's status from the failure table (base/failure.hh): usage (2)
 * for a bad command line, io_error (1) when it cannot bind or write
 * the port file. A clean shutdown exits 0.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/failure.hh"
#include "base/fsutil.hh"
#include "base/stringutil.hh"
#include "serve/faults.hh"
#include "serve/server.hh"
#include "sweep/rowlog.hh"

using namespace eq;

namespace {

serve::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->shutdown();
}

/** Print @p code's structured error line; returns its exit status. */
int
fail(ErrorCode code, const std::string &message)
{
    return sweep::printError("eqserved", code, message);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --host ADDR          bind address (default 127.0.0.1)\n"
        "  --port N             TCP port; 0 = ephemeral (default 0)\n"
        "  --port-file PATH     write the bound port to PATH\n"
        "  --cache-entries N    program-cache capacity (default 32)\n"
        "  --workers N          scheduler worker threads (default hw)\n"
        "  --max-queue N        per-client queued-job cap (default 256)\n"
        "  --max-queue-total N  pool-wide queued-job cap; excess\n"
        "                       requests are shed (default unlimited)\n"
        "  --max-line N         request-line byte cap (default 8 MiB)\n"
        "  --faults SPEC        deterministic fault injection, e.g.\n"
        "                       torn=0.1,drop=0.05,werr=0.2,max=20:42\n"
        "                       (testing only)\n"
        "  --backend MODE       auto|interp|compiled (default auto,\n"
        "                       which resolves $EQ_SIM_BACKEND)\n",
        argv0);
}

/** Parse @p text into @p out (>= @p min), or exit as a usage error
 *  naming @p flag. */
template <class T>
void
parseFlag(const std::string &flag, const char *text, T min, T *out)
{
    if (!parseInt(text, min, out))
        std::exit(fail(ErrorCode::Usage,
                       "bad " + flag + " '" + std::string(text) + "'"));
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions opts;
    std::string portFile;
    std::string faultSpec;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                std::exit(fail(ErrorCode::Usage, arg + " needs a value"));
            return argv[++i];
        };
        if (arg == "--host") {
            opts.host = value();
        } else if (arg == "--port") {
            parseFlag(arg, value(), uint16_t(0), &opts.port);
        } else if (arg == "--port-file") {
            portFile = value();
        } else if (arg == "--cache-entries") {
            parseFlag(arg, value(), size_t(1), &opts.cacheEntries);
        } else if (arg == "--workers") {
            parseFlag(arg, value(), 1u, &opts.workers);
        } else if (arg == "--max-queue") {
            parseFlag(arg, value(), size_t(1), &opts.maxQueuedPerClient);
        } else if (arg == "--max-queue-total") {
            parseFlag(arg, value(), size_t(1), &opts.maxQueuedTotal);
        } else if (arg == "--max-line") {
            parseFlag(arg, value(), size_t(1), &opts.maxLineBytes);
        } else if (arg == "--faults") {
            faultSpec = value();
        } else if (arg == "--backend") {
            const std::string mode = value();
            if (!sim::backendFromName(mode, &opts.engine.backend))
                return fail(ErrorCode::Usage,
                            "bad --backend '" + mode + "'");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            return fail(ErrorCode::Usage, "unknown option '" + arg +
                                              "' (see --help)");
        }
    }

    if (!faultSpec.empty()) {
        std::string ferr;
        if (!serve::FaultInjector::configureFromText(faultSpec, &ferr))
            return fail(ErrorCode::Usage, "bad --faults: " + ferr);
    }

    serve::Server server(opts);
    std::string err;
    if (!server.start(&err))
        return fail(ErrorCode::IoError, err);

    if (!portFile.empty()) {
        // Atomic (temp + rename): a script polling for the file can
        // never read a half-written or empty port line.
        std::string werr;
        if (!fs::writeFileAtomic(
                portFile, std::to_string(unsigned(server.port())) + "\n",
                &werr)) {
            server.shutdown();
            server.wait();
            return fail(ErrorCode::IoError,
                        "cannot write " + portFile + ": " + werr);
        }
    }

    std::printf("eqserved: listening on %s:%u (cache %zu entries, "
                "%u workers)\n",
                opts.host.c_str(), unsigned(server.port()),
                server.cache().stats().capacity,
                server.scheduler().workers());
    if (serve::FaultInjector::enabled())
        std::printf("eqserved: FAULT INJECTION ACTIVE (%s)\n",
                    serve::FaultInjector::describe().c_str());
    std::fflush(stdout);

    g_server = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    server.wait();
    g_server = nullptr;
    std::printf("eqserved: shut down\n");
    return 0;
}
