#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "ir/context.hh"
#include "loadgen.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "support.hh"
#include "sweep/grid.hh"
#include "sweep/runner.hh"
#include "systolic/generator.hh"

namespace eq {
namespace perfbench {

namespace {

using scalesim::Config;
using scalesim::Dataflow;
using serve::Json;

/** Per-point host-work cap of sweep-cold (see peSteps): keeps the
 *  slowest point near 50 ms on the interpreter, so no single point
 *  dominates a run. */
constexpr int64_t kPeStepCap = 3000;
/** Worker threads of the two sweeps. */
constexpr unsigned kSweepThreads = 2;
/** Points the traced run re-runs to time a warm Session::run. */
constexpr size_t kWarmProbe = 48;
/** lower-stages: stages each design is lowered to and simulated at. */
constexpr size_t kLowerStages = 4;
/** serve-mixed: share of the run spent in the open loop (the rest is
 *  the closed loop), connections, open/closed rounds. */
constexpr double kOpenShare = 0.5;
constexpr unsigned kConnections = 2;
constexpr size_t kServeRounds = 3;
/** Closed-loop requests in flight per connection: enough to keep both
 *  workers busy through the round trip, so capacity measures the
 *  daemon, not the wake-up latency of the host. */
constexpr unsigned kClosedWindow = 4;
constexpr double kDrainSeconds = 10.0;
/** serve-mixed open-loop offered rate (req/s): low enough that the
 *  daemon stays mostly idle even when the host runs at half speed, so
 *  the latency follows the service time, not a queue that grows as the
 *  host slows (measured capacities in perfbench/README.md). */
constexpr double kOfferedRate = 60.0;

/** Combined digests of the simulated statistics of every sweep-cold
 *  point, every lower-stages item and every serve-mixed config. The
 *  combination is order-free, so they hold for every seed. They pin the
 *  engine's results the way the golden files do: a change that moves
 *  any simulated statistic fails the benchmark until it updates these
 *  on purpose. */
constexpr uint64_t kSweepColdDigest = 0x4b71ff0f2d623f03ull;
constexpr uint64_t kLowerStagesDigest = 0x033eb2c639468d4cull;
constexpr uint64_t kServeMixedDigest = 0xff4c1e10430e4b43ull;

Dataflow
dataflowOf(int v)
{
    return v == 0 ? Dataflow::WS : v == 1 ? Dataflow::IS : Dataflow::OS;
}

void
printReady()
{
    std::printf("ready\n");
    std::fflush(stdout);
}

/** Mean of @p total over @p n (0 when n is 0). */
double
meanOf(double total, size_t n)
{
    return n ? total / double(n) : 0.0;
}

/** The end-to-end numbers every workload reports. */
struct EndToEnd {
    /** points_per_s: on the sweeps, points per second at the host's full
     *  speed (see fastestSum); on serve-mixed, the closed loop's
     *  completions per second (its capacity). */
    double rate = 0.0;
    /** Points per second over the whole run, whatever the host's speed. */
    double wallRate = 0.0;
    std::vector<double> latencyMs; ///< p50/p90/p99 source

    /** Add every timing (seconds) of every point to latencyMs. */
    void
    addLatencies(const std::vector<std::vector<double>> &seconds)
    {
        for (const auto &xs : seconds)
            for (double s : xs)
                latencyMs.push_back(s * 1e3);
    }
    size_t attempted = 0;
    size_t failed = 0;     ///< failed, refused or unanswered
    size_t mismatched = 0; ///< answered with wrong statistics
    double cycleErrPct = 0.0;
    /** Peak RSS of this process after the timed phase (0 when the
     *  simulating process is another one: eqserved). */
    double peakRssMb = 0.0;
    uint64_t digest = 0;
};

/** Span-derived per-layer numbers shared by the workloads. */
void
addSpanLayers(const Tracer &tracer, Json *layers)
{
    auto totals = tracer.totals();
    auto meanMs = [&](const std::string &name) {
        auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : meanOf(it->second.second * 1e3, it->second.first);
    };
    layers->set("systolic.build_ms", meanMs("systolic.build"));
    layers->set("soc.build_ms", meanMs("soc.build"));
    layers->set("ir.verify_ms", meanMs("ir.verify"));
    // first_run and warm_run time the same modules: their difference is
    // the per-module setup a pinned BatchSession saves.
    layers->set("sim.first_run_ms", meanMs("sim.first_run"));
    layers->set("sim.warm_run_ms", meanMs("sim.warm_run"));
    layers->set("passes.build_ms", meanMs("passes.build"));
    for (const char *stage : {"linalg", "affine", "reassign", "systolic"}) {
        layers->set(std::string("passes.lower_ms.") + stage,
                    meanMs(std::string("passes.lower.") + stage));
        layers->set(std::string("sim.run_ms.") + stage,
                    meanMs(std::string("sim.run.") + stage));
    }
    // Every first run of a pinned or fresh module, at any stage.
    size_t runs = 0;
    double run_s = 0.0;
    for (const auto &[name, ct] : totals)
        if (name == "sim.run" || name == "sim.first_run" ||
            name.rfind("sim.run.", 0) == 0) {
            runs += ct.first;
            run_s += ct.second;
        }
    layers->set("sim.run_ms", meanOf(run_s * 1e3, runs));
    layers->set("sweep.point_ms", meanMs("sweep.point"));
    auto self = tracer.selfTimes();
    double point_self = self.count("sweep.point") ? self["sweep.point"] : 0;
    layers->set("sweep.self_ms",
                totals.count("sweep.point")
                    ? meanOf(point_self * 1e3, totals["sweep.point"].first)
                    : 0.0);
}

/** The traced run's closure check: on every track the span self times
 *  must add up to the wall time the workload measured for that track
 *  with its own clock (@p wall_s, one per track). A track that
 *  disagrees counts as a failure. */
void
checkTraceClosure(const Tracer &tracer, const std::vector<double> &wall_s,
                  Json *layers, EndToEnd *e)
{
    double self_total = 0.0, wall_total = 0.0;
    for (unsigned t = 0; t < tracer.tracks(); ++t) {
        const double self = tracer.trackSelf(t);
        const bool ok = spansCoverWall(tracer, t, wall_s.at(t));
        std::printf("# track %u: span self times %.3f ms of %.3f ms "
                    "measured wall%s\n",
                    t, self * 1e3, wall_s[t] * 1e3,
                    ok ? "" : "  (DISAGREE)");
        self_total += self;
        wall_total += wall_s[t];
        e->failed += !ok;
    }
    layers->set("trace.self_sum_ms", self_total * 1e3);
    layers->set("trace.wall_ms", wall_total * 1e3);
}

/** Compare a workload's combined digest with its pinned value; a
 *  difference counts as a wrong result. */
void
checkPinned(const char *workload, uint64_t pinned, EndToEnd *e)
{
    if (e->digest == pinned)
        return;
    std::fprintf(stderr,
                 "%s: simulated statistics digest %016llx differs from "
                 "the pinned %016llx\n",
                 workload, static_cast<unsigned long long>(e->digest),
                 static_cast<unsigned long long>(pinned));
    ++e->mismatched;
}

/** Engine counters over the timed runs, reported per run. */
struct SimCounts {
    uint64_t runs = 0, ops = 0, events = 0, dispatches = 0;
    double runSeconds = 0.0;

    void
    add(const sim::SimReport &r)
    {
        ++runs;
        ops += r.opsExecuted;
        events += r.eventsExecuted;
        dispatches += r.dispatchCount;
        runSeconds += r.wallSeconds;
    }
    void
    merge(const SimCounts &o)
    {
        runs += o.runs;
        ops += o.ops;
        events += o.events;
        dispatches += o.dispatches;
        runSeconds += o.runSeconds;
    }
    void
    emit(Json *layers) const
    {
        layers->set("sim.ops", meanOf(double(ops), runs));
        layers->set("sim.events", meanOf(double(events), runs));
        layers->set("sim.dispatches", meanOf(double(dispatches), runs));
        layers->set("sim.ops_per_s", runSeconds > 0 ? ops / runSeconds : 0);
    }
};

/** Print the per-layer self-time table and write the Chrome trace. */
void
reportTrace(const Tracer &tracer, const RunOptions &opts)
{
    const auto self = tracer.selfTimes();
    double total = 0.0;
    for (const auto &[name, s] : self)
        total += s;
    std::printf("# span self times (share of %.3f s over every track)\n",
                total);
    for (const auto &[name, s] : self)
        std::printf("#   %-24s %10.3f ms  %5.1f%%\n", name.c_str(),
                    s * 1e3, total > 0 ? 100.0 * s / total : 0.0);
    if (!opts.tracePath.empty()) {
        if (tracer.writeChrome(opts.tracePath))
            std::printf("# wrote %s\n", opts.tracePath.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n",
                         opts.tracePath.c_str());
    }
}

/** Print the result line the driver script reads (always last). */
int
emitResult(const char *workload, const RunOptions &opts, const EndToEnd &e,
           Json layers)
{
    Json metrics = Json::object();
    metrics.set("points_per_s", e.rate);
    metrics.set("wall_points_per_s", e.wallRate);
    std::string err;
    Percentile p50, p90, p99;
    bool tails = percentile(e.latencyMs, 0.50, &p50, &err) &&
                 percentile(e.latencyMs, 0.90, &p90, &err);
    // A fixed --items set is for digests only; its tails may be thin.
    if (!tails && !opts.items)
        std::fprintf(stderr, "%s: %s\n", workload, err.c_str());
    // p99 is reported but not required: see perfbench/README.md.
    if (!percentile(e.latencyMs, 0.99, &p99, &err) && !opts.items)
        std::fprintf(stderr, "%s: %s\n", workload, err.c_str());
    metrics.set("p50_ms", p50.value);
    metrics.set("p90_ms", p90.value);
    metrics.set("p99_ms", p99.value);
    metrics.set("latency_samples", p50.samples);
    metrics.set("cycle_err_pct", e.cycleErrPct);
    metrics.set("peak_rss_mb", e.peakRssMb);
    const size_t bad = e.failed + e.mismatched;
    metrics.set("error_frac",
                e.attempted ? double(bad) / double(e.attempted) : 1.0);

    Json out = Json::object();
    out.set("workload", workload);
    out.set("seed", opts.seed);
    out.set("stamp", buildStamp());
    out.set("attempted", e.attempted);
    out.set("failed", bad);
    out.set("mismatched", e.mismatched);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(e.digest));
    out.set("digest", hex);
    out.set("metrics", std::move(metrics));
    out.set("layers", std::move(layers));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return ((tails || opts.items) && bad == 0 && e.attempted > 0) ? 0 : 1;
}

} // namespace

// ---------------------------------------------------------------------------
// Generators

int64_t
peSteps(const Config &cfg)
{
    const int64_t skew = cfg.ah + cfg.aw - 2;
    const int64_t t = cfg.streamLength();
    const int64_t d1 = cfg.d1(), d2 = cfg.d2();
    int64_t total = 0;
    for (int64_t r = 0; r < d1; r += cfg.ah)
        for (int64_t c = 0; c < d2; c += cfg.aw)
            total += (t + skew) * std::min<int64_t>(cfg.ah, d1 - r) *
                     std::min<int64_t>(cfg.aw, d2 - c);
    return total;
}

std::vector<Config>
sweepSample(uint64_t seed)
{
    std::vector<Config> space;
    for (int df = 0; df < 3; ++df)
        for (int ah : {2, 4, 8, 16, 32})
            for (int hw : {2, 4, 8, 16, 32})
                for (int f : {1, 2, 4})
                    for (int n : {1, 2, 4, 8, 16, 32}) {
                        if (hw < f)
                            continue;
                        Config cfg;
                        cfg.ah = ah;
                        cfg.aw = 64 / ah;
                        cfg.dataflow = dataflowOf(df);
                        cfg.h = cfg.w = hw;
                        cfg.fh = cfg.fw = cfg.c = f;
                        cfg.n = n;
                        if (peSteps(cfg) <= kPeStepCap)
                            space.push_back(cfg);
                    }
    Rng rng(seed);
    rng.shuffle(space);
    return space;
}

std::vector<LowerItem>
lowerItems(uint64_t seed)
{
    // C/N/F shapes of equal MAC volume per output pixel (C*N*Fh*Fw =
    // 108). Every pass covers every design, so the seed changes the order
    // of the work, not its amount.
    static const int kShapes[][3] = {{3, 4, 3}, {4, 3, 3}, {2, 6, 3},
                                     {6, 2, 3}, {1, 12, 3}};
    std::vector<Config> designs;
    for (int df = 0; df < 3; ++df)
        for (const auto &shape : kShapes) {
            Config c;
            c.ah = c.aw = 4;
            c.dataflow = dataflowOf(df);
            c.h = c.w = 4;
            c.c = shape[0];
            c.n = shape[1];
            c.fh = c.fw = shape[2];
            designs.push_back(c);
        }
    Rng rng(seed);
    rng.shuffle(designs);
    std::vector<LowerItem> items;
    for (const Config &c : designs)
        for (auto stage : {passes::Stage::Linalg, passes::Stage::Affine,
                           passes::Stage::Reassign, passes::Stage::Systolic})
            items.push_back({c, stage});
    return items;
}

namespace {

/** Popularity ranks for one family: the family's configs sorted by a
 *  host-cost key and cut into @p tiers equal tiers; the k-th pick comes
 *  from tier k mod tiers (shuffled within the tier), so every
 *  popularity level gets the same cost mix. */
std::vector<serve::ModelKey>
stratify(std::vector<std::pair<int64_t, serve::ModelKey>> pool,
         size_t tiers, Rng &rng)
{
    std::stable_sort(pool.begin(), pool.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    const size_t per = pool.size() / tiers;
    std::vector<std::vector<serve::ModelKey>> tier(tiers);
    for (size_t i = 0; i < pool.size(); ++i)
        tier[std::min(i / per, tiers - 1)].push_back(pool[i].second);
    for (auto &t : tier)
        rng.shuffle(t);
    std::vector<serve::ModelKey> out;
    for (size_t k = 0; k < pool.size(); ++k)
        out.push_back(tier[k % tiers][k / tiers]);
    return out;
}

} // namespace

ServeTraffic
serveTraffic(uint64_t seed, size_t num_requests, double rate)
{
    // One fixed universe per family, each config small enough to
    // answer in a few milliseconds on the interpreter, with a fixed
    // popularity ranking; the seed draws the request stream. A seed that
    // also re-ranked the configs would change which ones miss, and so
    // the work of a run, adding its own spread to the run-to-run spread.
    Rng rank_rng(0);
    std::vector<std::pair<int64_t, serve::ModelKey>> sys, soc_pool, pipe;
    for (auto [ah, aw] : {std::pair{2, 2}, {2, 4}, {4, 2}, {4, 4}})
        for (int df = 0; df < 3; ++df)
            for (int hw : {6, 8})
                for (int n : {2, 4}) {
                    Config c;
                    c.ah = ah;
                    c.aw = aw;
                    c.dataflow = dataflowOf(df);
                    c.h = c.w = hw;
                    c.c = 1;
                    c.fh = c.fw = 2;
                    c.n = n;
                    sys.push_back({peSteps(c), serve::ModelKey::systolicKey(c)});
                }
    for (int tiles : {1, 2, 3})
        for (int64_t bw : {4, 8})
            for (int rounds : {2, 3})
                for (int steps : {16, 32}) {
                    soc::SocConfig c;
                    c.accels.clear();
                    for (int i = 0; i < tiles; ++i) {
                        soc::TileSpec t;
                        t.dataflow = i % 2 ? Dataflow::OS : Dataflow::WS;
                        c.accels.push_back(t);
                    }
                    c.busBytesPerCycle = bw;
                    c.rounds = rounds;
                    c.steps = steps;
                    soc_pool.push_back({int64_t(tiles) * rounds * steps,
                                        serve::ModelKey::socKey(c)});
                }
    for (int stages : {2, 3, 4})
        for (int batches : {16, 32})
            for (int64_t tile : {16, 32})
                for (int compute : {1, 2}) {
                    soc::PipelineConfig c;
                    c.stages = stages;
                    c.batches = batches;
                    c.tileElems = tile;
                    c.computePerElem = compute;
                    pipe.push_back({stages * batches * tile * compute,
                                    serve::ModelKey::pipelineKey(c)});
                }
    const std::vector<serve::ModelKey> fams[3] = {
        stratify(std::move(sys), 6, rank_rng),
        stratify(std::move(soc_pool), 4, rank_rng),
        stratify(std::move(pipe), 4, rank_rng)};

    // Popularity rank r takes its family from a fixed pattern (two
    // systolic, one soc, one pipeline per four ranks).
    ServeTraffic t;
    size_t next[3] = {0, 0, 0};
    for (size_t r = 0; r < kUniverseSize; ++r) {
        int fam = (r % 4 < 2) ? 0 : (r % 4 == 2 ? 1 : 2);
        t.universe.push_back(fams[fam][next[fam]++]);
    }

    Rng rng(seed);
    std::vector<double> cdf(kUniverseSize);
    double acc = 0.0;
    for (size_t r = 0; r < kUniverseSize; ++r)
        cdf[r] = acc += std::pow(double(r + 1), -kZipfS);
    for (size_t i = 0; i < num_requests; ++i) {
        double u = rng.uniform() * acc;
        t.requests.push_back(static_cast<uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
        t.due.push_back(double(i) / rate);
    }
    return t;
}

// ---------------------------------------------------------------------------
// sweep-cold

namespace {

/** What one timed sweep point produced. */
struct PointRecord {
    uint32_t seq = 0;
    uint64_t digest = 0;
    uint64_t cycles = 0;
};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
runSweepCold(const RunOptions &opts)
{
    const std::vector<Config> sample = sweepSample(opts.seed);
    sweep::Grid grid;
    {
        std::vector<int64_t> seq(sample.size());
        for (size_t i = 0; i < seq.size(); ++i)
            seq[i] = int64_t(i);
        grid.axis("seq", std::move(seq));
    }
    const std::vector<sweep::Point> points = grid.points();
    sweep::RunnerOptions ropts;
    ropts.threads = kSweepThreads;
    sweep::SweepRunner runner(ropts);

    // A traced run verifies under its own span instead of inside the
    // first Session::run: the same work, attributed to the ir layer.
    sim::EngineOptions eng;
    eng.verifyModule = !opts.trace;
    std::vector<std::unique_ptr<sim::Session>> sessions;
    for (unsigned w = 0; w < kSweepThreads; ++w)
        sessions.push_back(std::make_unique<sim::Session>(eng));
    // Tracks: one per worker, the main thread, the warm probe.
    const unsigned kMain = kSweepThreads, kProbe = kSweepThreads + 1;
    Tracer tracer(opts.trace, kSweepThreads + 2);
    // Wall time per track, from the workload's own clock: a worker's is
    // first point in to last point out of each pass.
    std::vector<double> wall_s(kSweepThreads + 2, 0.0);
    std::vector<Clock::time_point> pass_in(kSweepThreads),
        pass_out(kSweepThreads);

    // Timings of each point of the sample, one per pass. A pass runs
    // every point once, so no two workers touch the same entry at once.
    std::vector<std::vector<double>> point_s(sample.size());
    std::vector<std::vector<PointRecord>> records(kSweepThreads);
    std::vector<SimCounts> counts(kSweepThreads);
    std::atomic<size_t> verify_failures{0};
    Clock::time_point start;
    const std::vector<sweep::Column> schema{
        {"cycles", sweep::ValueKind::Int, 10, 0}};

    auto fn = [&](const sweep::Point &p,
                  unsigned w) -> std::vector<sweep::Cell> {
        const uint32_t seq = static_cast<uint32_t>(p.at(size_t(0)));
        const Config &cfg = sample[seq];
        auto t0 = Clock::now();
        if (pass_in[w] == Clock::time_point{})
            pass_in[w] = t0;
        sim::SimReport rep;
        {
            Tracer::Scope point(tracer, w, "sweep.point", seq + 1);
            sim::Session &s = *sessions[w];
            s.rebuild([&](ir::Context &ctx) {
                Tracer::Scope b(tracer, w, "systolic.build");
                return systolic::buildSystolicModule(ctx, cfg);
            });
            if (opts.trace) {
                Tracer::Scope v(tracer, w, "ir.verify");
                if (!s.module()->verify().empty())
                    ++verify_failures;
            }
            {
                Tracer::Scope r(tracer, w, "sim.run");
                rep = s.run();
            }
            point_s[seq].push_back(secondsSince(t0));
            records[w].push_back({seq, reportDigest(rep), rep.cycles});
            counts[w].add(rep);
        }
        if (opts.trace)
            pass_out[w] = Clock::now();
        return {static_cast<int64_t>(rep.cycles)};
    };

    printReady();
    if (opts.setupOnly)
        return 0;

    start = Clock::now();
    int64_t root = tracer.begin(kMain, "sweep.run");
    // One SweepRunner::run per pass over the sample, as the fig12
    // harness runs its grid; passes repeat until the time is up. Every
    // full pass is the same work whatever the seed.
    EndToEnd e;
    size_t done = 0, full_points = 0;
    double full_s = 0.0;
    while (opts.items ? done < opts.items
                      : secondsSince(start) < opts.seconds) {
        size_t n = std::min(points.size(),
                            opts.items ? opts.items - done : points.size());
        std::vector<sweep::Point> pass(points.begin(), points.begin() + n);
        Tracer::Scope b(tracer, kMain, "sweep.pass");
        const auto p0 = Clock::now();
        runner.run(pass, schema, fn);
        if (n == points.size()) {
            full_points += n;
            full_s += secondsSince(p0);
        }
        done += n;
        for (unsigned w = 0; w < kSweepThreads; ++w) {
            if (opts.trace && pass_in[w] != Clock::time_point{})
                wall_s[w] += secondsBetween(pass_in[w], pass_out[w]);
            pass_in[w] = {};
        }
    }
    const double elapsed = secondsSince(start);
    tracer.end(kMain, root);
    wall_s[kMain] = elapsed;
    // Taken before the reference pass, whose fresh simulators are the
    // check's memory, not the sweep's.
    e.peakRssMb = peakRssMb();

    e.attempted = done;
    e.failed = verify_failures;
    e.addLatencies(point_s);
    SimCounts total;
    for (unsigned w = 0; w < kSweepThreads; ++w)
        total.merge(counts[w]);
    e.wallRate = full_points ? double(full_points) / full_s
                             : double(done) / elapsed;
    // The rate of a pass at the host's full speed: each point's fastest
    // time, shared over the workers.
    const double fast_s = fastestSum(point_s);
    e.rate = fast_s > 0 ? double(kSweepThreads * sample.size()) / fast_s
                        : e.wallRate;

    // References: a fresh Simulator (fresh context, fresh module) per
    // distinct point, and SCALE-Sim's analytical model, which every
    // point of the capped space matches cycle for cycle. Every timed
    // run of a point must match both.
    const size_t distinct = std::min(done, sample.size());
    std::vector<uint64_t> ref(distinct);
    std::vector<uint64_t> ref_cycles(distinct);
    std::vector<uint64_t> scalesim_cycles(distinct);
    {
        std::vector<sweep::Point> ref_points(points.begin(),
                                             points.begin() + distinct);
        runner.run(ref_points, schema,
                   [&](const sweep::Point &p, unsigned) {
                       size_t seq = size_t(p.at(size_t(0)));
                       ir::Context ctx;
                       ir::registerAllDialects(ctx);
                       auto module =
                           systolic::buildSystolicModule(ctx, sample[seq]);
                       sim::Simulator sim;
                       sim::SimReport rep = sim.simulate(module.get());
                       ref[seq] = reportDigest(rep);
                       ref_cycles[seq] = rep.cycles;
                       return std::vector<sweep::Cell>{
                           static_cast<int64_t>(rep.cycles)};
                   });
    }
    double err_sum = 0.0;
    for (size_t i = 0; i < distinct; ++i) {
        scalesim_cycles[i] = scalesim::simulate(sample[i]).cycles;
        err_sum += std::fabs(double(ref_cycles[i]) -
                             double(scalesim_cycles[i])) /
                   double(scalesim_cycles[i]);
        e.digest = mixDigest(e.digest, ref[i]);
    }
    for (const auto &recs : records)
        for (const PointRecord &r : recs)
            if (r.digest != ref[r.seq] || r.cycles != scalesim_cycles[r.seq])
                ++e.mismatched;
    e.cycleErrPct = 100.0 * err_sum / double(distinct);
    if (distinct == sample.size())
        checkPinned("sweep-cold", kSweepColdDigest, &e);
    std::printf("# sweep-cold: %zu points (%zu distinct of %zu) in %.3f s "
                "on %u threads\n",
                done, distinct, sample.size(), elapsed, kSweepThreads);

    Json layers = Json::object();
    if (opts.trace) {
        // Warm probe: re-run the first points of the order on one
        // session — the first run pays per-module setup, the second is
        // the BatchSession re-run the serving cache gets.
        sim::Session probe(eng);
        const auto w0 = Clock::now();
        {
            Tracer::Scope pr(tracer, kProbe, "sim.warm_probe");
            for (size_t i = 0; i < std::min(kWarmProbe, sample.size());
                 ++i) {
                probe.rebuild([&](ir::Context &ctx) {
                    return systolic::buildSystolicModule(ctx, sample[i]);
                });
                {
                    Tracer::Scope fr(tracer, kProbe, "sim.first_run");
                    probe.run();
                }
                Tracer::Scope wr(tracer, kProbe, "sim.warm_run");
                probe.run();
            }
        }
        wall_s[kProbe] = secondsSince(w0);
        addSpanLayers(tracer, &layers);
        total.emit(&layers);
        checkTraceClosure(tracer, wall_s, &layers, &e);
        reportTrace(tracer, opts);
    }
    return emitResult("sweep-cold", opts, e, std::move(layers));
}

// ---------------------------------------------------------------------------
// lower-stages

namespace {

const char *
stageKey(passes::Stage s)
{
    switch (s) {
    case passes::Stage::Linalg: return "linalg";
    case passes::Stage::Affine: return "affine";
    case passes::Stage::Reassign: return "reassign";
    case passes::Stage::Systolic: return "systolic";
    }
    return "?";
}

} // namespace

int
runLowerStages(const RunOptions &opts)
{
    const std::vector<LowerItem> items = lowerItems(opts.seed);
    sim::EngineOptions eng;
    eng.verifyModule = !opts.trace;
    Tracer tracer(opts.trace, 1);
    std::map<passes::Stage, std::string> lower_span, run_span;
    for (const auto &it : items) {
        lower_span[it.stage] = std::string("passes.lower.") +
                               stageKey(it.stage);
        run_span[it.stage] = std::string("sim.run.") + stageKey(it.stage);
    }

    printReady();
    if (opts.setupOnly)
        return 0;

    EndToEnd e;
    SimCounts counts;
    std::vector<std::vector<uint64_t>> digests(items.size());
    // Timings of each item, one per pass.
    std::vector<std::vector<double>> item_s(items.size());
    // A point is one item: a design built, lowered to one stage and
    // simulated there. Passes over the items (each the same work
    // whatever the seed) repeat until the time is up.
    size_t points = 0;
    double full_s = 0.0;
    const auto t0 = Clock::now();
    int64_t root = tracer.begin(0, "lower.run");
    for (size_t k = 0;
         opts.items ? k < opts.items : secondsSince(t0) < opts.seconds;
         ++k) {
        const size_t idx = k % items.size();
        const LowerItem &it = items[idx];
        const auto p0 = Clock::now();
        Tracer::Scope point(tracer, 0, "sweep.point", k + 1);
        ++e.attempted;
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        ir::OwningOpRef module;
        {
            Tracer::Scope b(tracer, 0, "passes.build");
            module = passes::buildConvModule(ctx, it.cfg);
        }
        std::string err;
        {
            Tracer::Scope l(tracer, 0, lower_span[it.stage].c_str());
            err = passes::lowerConvModule(module.get(), it.stage, it.cfg);
        }
        if (err.empty() && opts.trace) {
            Tracer::Scope v(tracer, 0, "ir.verify");
            err = module->verify();
        }
        if (err.empty()) {
            sim::Simulator sim(eng);
            sim::SimReport rep;
            {
                Tracer::Scope r(tracer, 0, run_span[it.stage].c_str());
                rep = sim.simulate(module.get());
            }
            counts.add(rep);
            digests[idx].push_back(reportDigest(rep));
            item_s[idx].push_back(secondsSince(p0));
        } else {
            std::fprintf(stderr, "lower-stages: %s\n", err.c_str());
            ++e.failed;
        }
        if (++points % items.size() == 0)
            full_s = secondsSince(t0);
    }
    const double elapsed = secondsSince(t0);
    tracer.end(0, root);
    e.peakRssMb = peakRssMb();
    const size_t full_points = points - points % items.size();
    e.wallRate = full_points ? double(full_points) / full_s
                             : double(points) / elapsed;
    e.addLatencies(item_s);
    const double fast_s = fastestSum(item_s);
    e.rate = fast_s > 0 ? double(items.size()) / fast_s : e.wallRate;

    // Reference: the one-call pipeline (buildConvAtStage) and a fresh
    // Simulator per distinct item; every timed run must match it.
    double err_sum = 0.0;
    size_t systolic_items = 0, covered = 0;
    for (size_t i = 0; i < items.size(); ++i) {
        if (digests[i].empty())
            continue;
        ++covered;
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        auto module = passes::buildConvAtStage(ctx, items[i].stage,
                                               items[i].cfg);
        sim::Simulator sim;
        sim::SimReport rep = sim.simulate(module.get());
        uint64_t ref = reportDigest(rep);
        for (uint64_t d : digests[i])
            e.mismatched += d != ref;
        e.digest = mixDigest(e.digest, ref);
        if (items[i].stage == passes::Stage::Systolic) {
            uint64_t ss = scalesim::simulate(items[i].cfg).cycles;
            err_sum += std::fabs(double(rep.cycles) - double(ss)) /
                       double(ss);
            ++systolic_items;
        }
    }
    e.cycleErrPct = systolic_items ? 100.0 * err_sum / systolic_items : 0.0;
    if (covered == items.size())
        checkPinned("lower-stages", kLowerStagesDigest, &e);
    std::printf("# lower-stages: %zu points (design, stage) over %zu "
                "designs x %zu stages in %.3f s\n",
                points, items.size() / kLowerStages, kLowerStages, elapsed);

    Json layers = Json::object();
    if (opts.trace) {
        addSpanLayers(tracer, &layers);
        counts.emit(&layers);
        checkTraceClosure(tracer, {elapsed}, &layers, &e);
        reportTrace(tracer, opts);
    }
    return emitResult("lower-stages", opts, e, std::move(layers));
}

// ---------------------------------------------------------------------------
// serve-mixed (the load generator; eqserved runs in its own process)

namespace {

/** Cache and scheduler counters from the daemon's stats op. */
struct ServerCounters {
    int64_t hits = 0, misses = 0, evictions = 0, rejected = 0;
};

bool
fetchStats(Transport &t, ServerCounters *out)
{
    Json req = Json::object();
    req.set("op", "stats");
    req.set("id", int64_t(1) << 40);
    if (!t.send(0, req.dump()))
        return false;
    std::vector<Reply> replies;
    auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
        if (!t.poll(deadline, &replies))
            return false;
        for (const Reply &r : replies) {
            const Json *cache = r.response.find("cache");
            const Json *sched = r.response.find("scheduler");
            if (!cache || !sched)
                continue;
            out->hits = cache->getInt("hits", 0);
            out->misses = cache->getInt("misses", 0);
            out->evictions = cache->getInt("evictions", 0);
            out->rejected =
                sched->getInt("rejected", 0) + sched->getInt("shed", 0);
            return true;
        }
        replies.clear();
    }
    return false;
}

double
medianOf(const std::vector<Outcome> &outs,
         const std::function<bool(const Outcome &)> &keep,
         const std::function<double(const Outcome &)> &value)
{
    std::vector<double> xs;
    for (const auto &o : outs)
        if (o.answered && o.ok && keep(o))
            xs.push_back(value(o));
    return median(xs);
}

} // namespace

int
runServeMixed(const RunOptions &opts)
{
    const double open_s = opts.seconds * kOpenShare;
    const double closed_s = opts.seconds - open_s;
    // Enough stream for the open loop plus a closed loop far above
    // the offered rate; indices wrap beyond it.
    const size_t n_stream = size_t(kOfferedRate * open_s * 1.5) +
                            size_t(kOfferedRate * 20 * closed_s);
    const ServeTraffic traffic =
        serveTraffic(opts.seed, n_stream, kOfferedRate);
    std::vector<double> due;
    for (double d : traffic.due)
        if (opts.items ? due.size() < opts.items : d < open_s)
            due.push_back(d);

    Tracer tracer(opts.trace, 1);
    // The request line for universe config u, and for stream index i.
    auto request = [&](uint32_t u, uint64_t id) {
        const serve::ModelKey &key = traffic.universe[u];
        Json req = Json::object();
        req.set("op", "simulate");
        req.set("id", id);
        req.set("model", serve::modelName(key.kind));
        req.set("config", serve::modelKeyToJson(key));
        return req.dump();
    };
    auto line = [&](uint32_t i, uint64_t id) {
        return request(traffic.requests[i], id);
    };

    TcpTransport tcp;
    std::string err;
    if (!tcp.connect(opts.port, kConnections, &err)) {
        std::fprintf(stderr, "serve-mixed: %s\n", err.c_str());
        return 1;
    }
    // Prime the hot set: every config of the universe once, one at a
    // time, from the least popular to the most, so the LRU cache (a
    // third of the universe) ends holding the hottest configs. Set-up is
    // then the same work whatever the seed.
    std::vector<Outcome> primed;
    for (uint32_t u = uint32_t(traffic.universe.size()); u-- > 0;) {
        auto one = runOpenLoop(
            tcp, {0.0}, [&](uint32_t, uint64_t id) { return request(u, id); },
            Clock::now(), kDrainSeconds);
        one[0].request = u;
        primed.push_back(std::move(one[0]));
    }
    ServerCounters before;
    if (!fetchStats(tcp, &before)) {
        std::fprintf(stderr, "serve-mixed: stats failed\n");
        return 1;
    }
    printReady();
    if (opts.setupOnly)
        return 0;

    // The phases alternate in rounds, so each samples the whole run: the
    // host's speed shifts for minutes at a time, and a phase confined to
    // one end of the run would measure only the speed that held there.
    const auto start = Clock::now();
    int64_t root = tracer.begin(0, "serve.run");
    std::vector<Outcome> open, closed;
    double closed_elapsed = 0.0;
    for (size_t r = 0; r < kServeRounds; ++r) {
        const size_t lo = due.size() * r / kServeRounds;
        const size_t hi = due.size() * (r + 1) / kServeRounds;
        {
            Tracer::Scope s(tracer, 0, "serve.open_loop");
            std::vector<double> slice;
            for (size_t i = lo; i < hi; ++i)
                slice.push_back(due[i] - due[lo]);
            auto outs = runOpenLoop(
                tcp, slice,
                [&](uint32_t i, uint64_t id) {
                    return line(uint32_t(lo) + i, id);
                },
                Clock::now(), kDrainSeconds);
            for (Outcome &o : outs) {
                o.request += uint32_t(lo);
                open.push_back(std::move(o));
            }
        }
        Tracer::Scope s(tracer, 0, "serve.closed_loop");
        const size_t max_requests =
            opts.items * (r + 1) / kServeRounds - opts.items * r / kServeRounds;
        double elapsed = 0.0;
        auto outs = runClosedLoop(
            tcp, uint32_t(due.size() + closed.size()),
            uint32_t(traffic.requests.size()), line, kClosedWindow,
            closed_s / kServeRounds, max_requests, kDrainSeconds, &elapsed);
        closed_elapsed += elapsed;
        closed.insert(closed.end(), outs.begin(), outs.end());
    }
    ServerCounters after;
    bool stats_ok;
    {
        Tracer::Scope s(tracer, 0, "serve.stats");
        stats_ok = fetchStats(tcp, &after);
    }
    const double traced_wall = secondsSince(start);
    tracer.end(0, root);

    EndToEnd e;
    auto tally = [&](const std::vector<Outcome> &outs) {
        for (const auto &o : outs) {
            ++e.attempted;
            if (!o.answered || !o.ok)
                ++e.failed;
        }
    };
    tally(primed);
    tally(open);
    tally(closed);
    if (!stats_ok)
        ++e.failed;
    double late_max = 0.0;
    for (const auto &o : open) {
        if (o.answered && o.ok)
            e.latencyMs.push_back(o.latencyMs);
        late_max = std::max(late_max, o.lateMs);
    }
    size_t completed = 0;
    for (const auto &o : closed)
        completed += o.answered && o.ok;
    e.rate = closed_elapsed > 0 ? double(completed) / closed_elapsed : 0.0;
    e.wallRate = e.rate;

    // Reference: one in-process sim::Session per config of the universe;
    // every served report (wall time and dispatch count aside) must
    // match its config's, and together they must match the pinned
    // digest. Not traced: the per-layer split is the daemon's.
    std::vector<uint64_t> ref(traffic.universe.size());
    double err_sum = 0.0;
    size_t systolic_cfgs = 0;
    for (size_t u = 0; u < ref.size(); ++u) {
        const serve::ModelKey &key = traffic.universe[u];
        sim::Session session;
        session.rebuild([&](ir::Context &ctx) { return key.build(ctx); });
        sim::SimReport rep = session.run();
        ref[u] = reportDigest(rep);
        e.digest = mixDigest(e.digest, ref[u]);
        if (key.kind == serve::ModelKind::Systolic) {
            uint64_t ss = scalesim::simulate(key.systolic).cycles;
            err_sum += std::fabs(double(rep.cycles) - double(ss)) /
                       double(ss);
            ++systolic_cfgs;
        }
    }
    checkPinned("serve-mixed", kServeMixedDigest, &e);
    e.cycleErrPct = systolic_cfgs ? 100.0 * err_sum / systolic_cfgs : 0.0;
    auto check = [&](const std::vector<Outcome> &outs, bool primed_set) {
        for (const auto &o : outs) {
            if (!o.answered || !o.ok)
                continue;
            const Json *rep = o.response.find("report");
            uint32_t u = primed_set ? o.request : traffic.requests[o.request];
            if (!rep || reportJsonDigest(*rep) != ref[u])
                ++e.mismatched;
        }
    };
    check(primed, true);
    check(open, false);
    check(closed, false);

    std::printf("# serve-mixed: open loop %zu requests at %.1f/s over "
                "%.1f s; closed loop %zu in %.3f s; generator late by "
                "<= %.3f ms\n",
                open.size(), kOfferedRate, open_s, closed.size(),
                closed_elapsed, late_max);

    Json layers = Json::object();
    if (opts.trace) {
        // The build and verify layers run inside the daemon, out of the
        // client's sight, and report 0 here. The engine's counters and
        // run times come from the served reports: a miss is the first
        // run of a newly pinned module, a hit a warm re-run.
        addSpanLayers(tracer, &layers);
        SimCounts counts;
        double cold_s = 0.0, warm_s = 0.0;
        size_t cold = 0, warm = 0;
        for (const auto *outs : {&open, &closed})
            for (const auto &o : *outs) {
                const Json *rep = o.response.find("report");
                if (!o.answered || !o.ok || !rep)
                    continue;
                sim::SimReport r;
                r.opsExecuted = uint64_t(rep->getInt("ops", 0));
                r.eventsExecuted = uint64_t(rep->getInt("events", 0));
                r.dispatchCount = uint64_t(rep->getInt("dispatches", 0));
                r.wallSeconds = o.execMs / 1e3;
                counts.add(r);
                (o.cached ? warm_s : cold_s) += r.wallSeconds;
                ++(o.cached ? warm : cold);
            }
        counts.emit(&layers);
        layers.set("sim.run_ms", meanOf(cold_s * 1e3, cold));
        layers.set("sim.first_run_ms", meanOf(cold_s * 1e3, cold));
        layers.set("sim.warm_run_ms", meanOf(warm_s * 1e3, warm));
        auto any = [](const Outcome &) { return true; };
        auto rtt = [](const Outcome &o) { return o.rttMs; };
        layers.set("serve.rtt_ms", medianOf(open, any, rtt));
        layers.set("serve.exec_ms",
                   medianOf(open, any,
                            [](const Outcome &o) { return o.execMs; }));
        layers.set("serve.overhead_ms",
                   medianOf(open, any, [](const Outcome &o) {
                       return o.rttMs - o.execMs;
                   }));
        layers.set("serve.cold_rtt_ms",
                   medianOf(open, [](const Outcome &o) { return !o.cached; },
                            rtt));
        layers.set("serve.warm_rtt_ms",
                   medianOf(open, [](const Outcome &o) { return o.cached; },
                            rtt));
        const int64_t hits = after.hits - before.hits;
        const int64_t misses = after.misses - before.misses;
        layers.set("serve.cache_hits", hits);
        layers.set("serve.cache_misses", misses);
        layers.set("serve.cache_hit_ratio",
                   hits + misses ? double(hits) / double(hits + misses)
                                 : 0.0);
        layers.set("serve.cache_evictions", after.evictions - before.evictions);
        layers.set("serve.rejected", after.rejected - before.rejected);
        layers.set("serve.gen_late_ms", late_max);
        // Request spans overlap (the open loop pipelines), so they are
        // laid out post hoc on lanes, one lane per concurrent request.
        std::vector<double> lane_end;
        for (const auto *outs : {&open, &closed})
            for (const auto &o : *outs) {
                if (!o.answered)
                    continue;
                Span s{"serve.request", tracer.at(o.sentAt),
                       tracer.at(o.doneAt), -1, o.request + 1ull};
                size_t lane = 0;
                while (lane < lane_end.size() && lane_end[lane] > s.start)
                    ++lane;
                if (lane == lane_end.size())
                    lane_end.push_back(0);
                lane_end[lane] = s.end;
                tracer.addSlice("requests " + std::to_string(lane), s);
            }
        checkTraceClosure(tracer, {traced_wall}, &layers, &e);
        reportTrace(tracer, opts);
    }
    return emitResult("serve-mixed", opts, e, std::move(layers));
}

} // namespace perfbench
} // namespace eq
