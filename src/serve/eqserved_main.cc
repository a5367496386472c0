/**
 * @file
 * eqserved: the simulation-as-a-service daemon. Binds, prints one
 * "listening" line (and optionally writes the bound port to a file for
 * scripts using an ephemeral port), then serves until a client sends
 * {"op":"shutdown"} or the process receives SIGINT/SIGTERM.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/fsutil.hh"
#include "serve/faults.hh"
#include "serve/server.hh"

using namespace eq;

namespace {

serve::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->shutdown();
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
        "  --cache-entries N    program-cache capacity\n"
        "                       (default $EQ_SERVE_CACHE_ENTRIES or 32)\n"
        "  --workers N          scheduler worker threads\n"
        "                       (default $EQ_SERVE_WORKERS or hw)\n"
        "  --max-queue N        per-client queued-job cap (default 256)\n"
        "  --max-queue-total N  pool-wide queued-job cap; excess\n"
        "                       requests are shed (default unlimited)\n"
        "  --max-line N         request-line byte cap\n"
        "                       (default $EQ_SERVE_MAX_LINE or 8 MiB)\n"
        "  --faults SPEC        deterministic fault injection, e.g.\n"
        "                       torn=0.1,drop=0.05,werr=0.2,max=20:42\n"
        "                       (default $EQ_SERVE_FAULTS; testing only)\n"
        "  --backend MODE       auto|interp|compiled (default auto,\n"
        "                       which resolves $EQ_SIM_BACKEND)\n",
        argv0);
}

bool
parseNum(const char *text, long *out)
{
    char *end = nullptr;
    long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || n < 0)
        return false;
    *out = n;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions opts;
    std::string portFile;
    std::string faultSpec;
    bool faultsFromFlag = false;
    if (const char *env = std::getenv("EQ_SERVE_FAULTS"))
        faultSpec = env;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "eqserved: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        long n = 0;
        if (arg == "--host") {
            opts.host = value();
        } else if (arg == "--port") {
            if (!parseNum(value(), &n) || n > 65535) {
                std::fprintf(stderr, "eqserved: bad --port\n");
                return 2;
            }
            opts.port = static_cast<uint16_t>(n);
        } else if (arg == "--port-file") {
            portFile = value();
        } else if (arg == "--cache-entries") {
            if (!parseNum(value(), &n) || n < 1) {
                std::fprintf(stderr, "eqserved: bad --cache-entries\n");
                return 2;
            }
            opts.cacheEntries = static_cast<size_t>(n);
        } else if (arg == "--workers") {
            if (!parseNum(value(), &n) || n < 1) {
                std::fprintf(stderr, "eqserved: bad --workers\n");
                return 2;
            }
            opts.workers = static_cast<unsigned>(n);
        } else if (arg == "--max-queue") {
            if (!parseNum(value(), &n) || n < 1) {
                std::fprintf(stderr, "eqserved: bad --max-queue\n");
                return 2;
            }
            opts.maxQueuedPerClient = static_cast<size_t>(n);
        } else if (arg == "--max-queue-total") {
            if (!parseNum(value(), &n) || n < 1) {
                std::fprintf(stderr,
                             "eqserved: bad --max-queue-total\n");
                return 2;
            }
            opts.maxQueuedTotal = static_cast<size_t>(n);
        } else if (arg == "--max-line") {
            if (!parseNum(value(), &n) || n < 1) {
                std::fprintf(stderr, "eqserved: bad --max-line\n");
                return 2;
            }
            opts.maxLineBytes = static_cast<size_t>(n);
        } else if (arg == "--faults") {
            faultSpec = value();
            faultsFromFlag = true;
        } else if (arg == "--backend") {
            const std::string mode = value();
            if (mode == "auto")
                opts.engine.backend = sim::Backend::Auto;
            else if (mode == "interp")
                opts.engine.backend = sim::Backend::Interp;
            else if (mode == "compiled")
                opts.engine.backend = sim::Backend::Compiled;
            else {
                std::fprintf(stderr, "eqserved: bad --backend '%s'\n",
                             mode.c_str());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "eqserved: unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (!faultSpec.empty()) {
        std::string ferr;
        if (!serve::FaultInjector::configureFromText(faultSpec, &ferr)) {
            std::fprintf(stderr, "eqserved: bad %s: %s\n",
                         faultsFromFlag ? "--faults" : "EQ_SERVE_FAULTS",
                         ferr.c_str());
            return 2;
        }
    }

    serve::Server server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "eqserved: %s\n", err.c_str());
        return 1;
    }

    if (!portFile.empty()) {
        // Atomic (temp + rename): a script polling for the file can
        // never read a half-written or empty port line.
        std::string werr;
        if (!fs::writeFileAtomic(
                portFile, std::to_string(unsigned(server.port())) + "\n",
                &werr)) {
            std::fprintf(stderr, "eqserved: cannot write %s: %s\n",
                         portFile.c_str(), werr.c_str());
            server.shutdown();
            server.wait();
            return 1;
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
