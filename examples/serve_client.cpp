/**
 * @file
 * serve_client: client for the eqserved simulation service, and a
 * self-contained demo of it.
 *
 * With no arguments it starts an in-process Server on an ephemeral
 * port, runs a cold+warm simulate, then checks that a served sweep
 * re-merged by point index is byte-identical to the in-process
 * SweepRunner table — exiting nonzero on any mismatch, which is what
 * makes the repo-wide example smoke test meaningful for the serving
 * layer.
 *
 * Against a real daemon:
 *   serve_client --connect 127.0.0.1:7070 --simulate [--model soc]
 *   serve_client --connect 127.0.0.1:7070 --stats
 *   serve_client --connect 127.0.0.1:7070 --shutdown
 * Served sweeps belong to eqsweep: `eqsweep <spec> --connect
 * HOST:PORT` prints the same CSV as the in-process `eqsweep <spec>`.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/failure.hh"
#include "serve/client.hh"
#include "serve/models.hh"
#include "serve/server.hh"

using namespace eq;

namespace {

struct Args {
    std::string connect; ///< host:port; empty = the demo
    bool simulate = false;
    bool stats = false;
    bool shutdown = false;
    std::string model = "systolic";
};

serve::SweepSpec
demoSpec()
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes.push_back({"ah", {2, 4}});
    spec.axes.push_back({"aw", {2, 4}});
    return spec;
}

/** The no-argument path: everything in one process, exit 0 only if the
 *  served table is byte-identical to the local one. */
int
runDemo()
{
    serve::ServerOptions sopts;
    sopts.workers = 2;
    serve::Server server(sopts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "serve_client: %s\n", err.c_str());
        return exitCodeFor(ErrorCode::IoError);
    }
    std::printf("demo server on 127.0.0.1:%u\n", unsigned(server.port()));

    serve::Client client;
    if (!client.connect("127.0.0.1", server.port(), &err)) {
        std::fprintf(stderr, "serve_client: %s\n", err.c_str());
        return exitCodeFor(ErrorCode::IoError);
    }

    serve::ModelKey key =
        serve::defaultKey(serve::ModelKind::Systolic);
    auto cold = client.simulate(key);
    auto warm = client.simulate(key);
    if (!cold.ok || !warm.ok) {
        std::fprintf(stderr, "serve_client: simulate failed: %s\n",
                     (cold.ok ? warm.error : cold.error).c_str());
        return exitCodeFor(cold.ok ? warm.code : cold.code);
    }
    std::printf("simulate: cycles=%lld cached cold=%d warm=%d\n",
                static_cast<long long>(
                    cold.report.getInt("cycles", -1)),
                int(cold.cached), int(warm.cached));
    if (cold.cached || !warm.cached) {
        std::fprintf(stderr,
                     "serve_client: cache warmth bits wrong\n");
        return exitCodeFor(ErrorCode::Internal);
    }

    serve::SweepSpec spec = demoSpec();
    sweep::Table served(spec.schema());
    serve::ErrorInfo failure;
    if (!client.sweepTable(spec, &served, &failure)) {
        std::fprintf(stderr, "serve_client: sweep failed: %s\n",
                     failure.message.c_str());
        return exitCodeFor(failure.code);
    }
    sweep::Table local = serve::runLocalSweep(spec);
    if (served.csv() != local.csv()) {
        std::fprintf(stderr,
                     "serve_client: served sweep differs from "
                     "in-process sweep!\n--- served ---\n%s--- local "
                     "---\n%s",
                     served.csv().c_str(), local.csv().c_str());
        return exitCodeFor(ErrorCode::Internal);
    }
    std::printf("sweep: %zu rows, served == local (byte-identical)\n",
                served.numRows());

    if (!client.shutdownServer(&err)) {
        std::fprintf(stderr, "serve_client: shutdown failed: %s\n",
                     err.c_str());
        return exitCodeFor(ErrorCode::IoError);
    }
    server.wait();
    std::printf("demo ok\n");
    return 0;
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
                std::fprintf(stderr, "serve_client: %s needs a value\n",
                             arg.c_str());
                std::exit(exitCodeFor(ErrorCode::Usage));
            }
            return argv[++i];
        };
        if (arg == "--connect") {
            args.connect = value();
        } else if (arg == "--simulate") {
            args.simulate = true;
        } else if (arg == "--stats") {
            args.stats = true;
        } else if (arg == "--shutdown") {
            args.shutdown = true;
        } else if (arg == "--model") {
            args.model = value();
        } else {
            std::fprintf(stderr, "serve_client: unknown option '%s'\n",
                         arg.c_str());
            return exitCodeFor(ErrorCode::Usage);
        }
    }

    if (args.connect.empty())
        return runDemo();

    serve::ModelKind kind;
    if (!serve::modelFromName(args.model, &kind)) {
        std::fprintf(stderr, "serve_client: unknown model '%s'\n",
                     args.model.c_str());
        return exitCodeFor(ErrorCode::Usage);
    }
    std::string host;
    uint16_t port = 0;
    if (!serve::parseHostPort(args.connect, &host, &port)) {
        std::fprintf(stderr,
                     "serve_client: bad --connect (want host:port)\n");
        return exitCodeFor(ErrorCode::Usage);
    }
    serve::Client client;
    std::string err;
    if (!client.connect(host, port, &err)) {
        std::fprintf(stderr, "serve_client: %s\n", err.c_str());
        return exitCodeFor(ErrorCode::IoError);
    }

    if (args.simulate) {
        auto result = client.simulate(serve::defaultKey(kind));
        if (!result.ok) {
            std::fprintf(stderr, "serve_client: %s\n",
                         result.error.c_str());
            return exitCodeFor(result.code);
        }
        std::printf("%s\n", result.report.dump().c_str());
    }
    if (args.stats) {
        serve::Json stats;
        if (!client.stats(&stats, &err)) {
            std::fprintf(stderr, "serve_client: %s\n", err.c_str());
            return exitCodeFor(ErrorCode::IoError);
        }
        std::printf("%s\n", stats.dump().c_str());
    }
    if (args.shutdown) {
        if (!client.shutdownServer(&err)) {
            std::fprintf(stderr, "serve_client: %s\n", err.c_str());
            return exitCodeFor(ErrorCode::IoError);
        }
    }
    return 0;
}
