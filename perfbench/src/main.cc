/**
 * @file
 * perfbench: the benchmark's workload driver. perfbench/run.py builds
 * it, times its set-up, and turns its result line into the benchmark's
 * metrics; it can also be run by hand:
 *
 *   perfbench sweep-cold   --seed N --seconds S [--trace FILE]
 *   perfbench lower-stages --seed N --seconds S [--trace FILE]
 *   perfbench serve-mixed  --seed N --seconds S --port P [--trace FILE]
 *   perfbench selftest
 *
 * --items K runs exactly K items instead of for S seconds (a fixed
 * input set, for comparing digests across backends); --setup-only
 * stops after the "ready" line.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hh"

using namespace eq::perfbench;

int runSelfTest();

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench sweep-cold|lower-stages|serve-mixed "
                 "--seed N --seconds S [--items K] [--trace FILE]\n"
                 "                 [--setup-only] [--port P]\n"
                 "       perfbench selftest\n");
    return 2;
}

bool
parseNumber(const char *text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0' && *out >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string workload = argv[1];
    if (workload == "selftest")
        return runSelfTest();

    RunOptions opts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            opts.setupOnly = true;
            continue;
        }
        double v = 0;
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (arg == "--trace") {
            opts.trace = true;
            opts.tracePath = value;
            continue;
        }
        if (!parseNumber(value, &v)) {
            std::fprintf(stderr, "perfbench: bad value for %s\n",
                         arg.c_str());
            return 2;
        }
        if (arg == "--seed")
            opts.seed = static_cast<uint64_t>(v);
        else if (arg == "--seconds")
            opts.seconds = v;
        else if (arg == "--items")
            opts.items = static_cast<size_t>(v);
        else if (arg == "--port" && v <= 65535)
            opts.port = static_cast<uint16_t>(v);
        else
            return usage();
    }

    if (workload == "sweep-cold")
        return runSweepCold(opts);
    if (workload == "lower-stages")
        return runLowerStages(opts);
    if (workload == "serve-mixed") {
        if (!opts.port)
            return usage();
        return runServeMixed(opts);
    }
    return usage();
}
