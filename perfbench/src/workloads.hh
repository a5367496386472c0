/**
 * @file
 * The benchmark's three workloads and their seeded input generators.
 *
 *   sweep-cold    a seeded order of the capped Fig. 12 space, run
 *                 in-process through sweep::SweepRunner (2 threads, one
 *                 sim::Session per worker); every point is a rebuild.
 *   lower-stages  the Fig. 11 flow: build a conv module, lower it to
 *                 each stage, simulate every stage in a fresh context
 *                 (1 thread).
 *   serve-mixed   Zipf traffic over a seeded universe of systolic /
 *                 soc / pipeline configs against a running eqserved:
 *                 an open loop at a fixed rate, then a closed loop.
 *
 * Each workload prints "ready" once set-up is done (the driver times
 * launch -> ready), then runs for the requested seconds, checks every
 * simulated statistic against an in-process reference, and prints one
 * JSON result line.
 */

#ifndef EQ_PERFBENCH_WORKLOADS_HH
#define EQ_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "passes/pipeline.hh"
#include "scalesim/scalesim.hh"
#include "serve/models.hh"

namespace eq {
namespace perfbench {

struct RunOptions {
    uint64_t seed = 1;
    double seconds = 10.0;
    /** Record spans and report the per-layer split. */
    bool trace = false;
    /** Chrome-trace output path (traced runs only). */
    std::string tracePath;
    /** Stop after printing "ready" (set-up timing trials). */
    bool setupOnly = false;
    /** serve-mixed: the daemon's port. */
    uint16_t port = 0;
    /** When nonzero, run exactly this many items (points, requests per
     *  serve phase) instead of for @ref seconds: a fixed input set whose
     *  digest compares across backends. */
    size_t items = 0;
};

int runSweepCold(const RunOptions &opts);
int runLowerStages(const RunOptions &opts);
int runServeMixed(const RunOptions &opts);

// ---------------------------------------------------------------------------
// Seeded input generators (deterministic: same seed, same inputs).

/** Host-work estimate of one systolic point: PE-steps summed over its
 *  folds, (stream + skew) x active PEs — the generator's launch count
 *  up to a constant. */
int64_t peSteps(const scalesim::Config &cfg);

/** The Fig. 12 space (df x Ah in {2..32}, Aw = 64/Ah x HW x F x N,
 *  HW >= F, C = F) without points whose peSteps exceed the cap, in a
 *  seeded order. */
std::vector<scalesim::Config> sweepSample(uint64_t seed);

/** One lower-stages item: a conv shape and the stage to lower it to. */
struct LowerItem {
    scalesim::Config cfg;
    passes::Stage stage = passes::Stage::Linalg;
};

/** Every (df, C/N/F shape) design of the Fig. 11 flow (H = W = 4 on a
 *  4x4 array), in a seeded order, each followed by its Linalg, Affine,
 *  Reassign and Systolic items. */
std::vector<LowerItem> lowerItems(uint64_t seed);

/** The serve-mixed traffic: a universe of configs ranked by Zipf
 *  popularity (rank 0 hottest), and a request stream over it. */
struct ServeTraffic {
    std::vector<serve::ModelKey> universe;
    /** Universe index of each request, in send order. */
    std::vector<uint32_t> requests;
    /** Open-loop send offsets (seconds from the start of phase 1),
     *  evenly spaced at the offered rate; one per request. */
    std::vector<double> due;
};

/** Zipf exponent and universe size of serve-mixed. */
constexpr double kZipfS = 1.1;
constexpr size_t kUniverseSize = 96;

ServeTraffic serveTraffic(uint64_t seed, size_t num_requests, double rate);

} // namespace perfbench
} // namespace eq

#endif // EQ_PERFBENCH_WORKLOADS_HH
