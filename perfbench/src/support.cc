#include "support.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "sim/engine.hh"
#include "sim/trace.hh"

namespace eq {
namespace perfbench {

uint64_t
Rng::next()
{
    uint64_t z = (_s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

bool
percentile(std::vector<double> xs, double q, Percentile *out,
           std::string *err)
{
    const size_t n = xs.size();
    // Nearest rank: the value at index ceil(q*n)-1; the samples beyond
    // it are the n - ceil(q*n) larger ones.
    size_t rank = static_cast<size_t>(std::ceil(q * double(n)));
    if (n == 0 || n - rank < 10) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "p%g needs >= 10 samples beyond it; have %zu "
                      "samples",
                      q * 100.0, n);
        *err = buf;
        return false;
    }
    std::nth_element(xs.begin(), xs.begin() + (rank - 1), xs.end());
    out->value = xs[rank - 1];
    out->samples = n;
    return true;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
fastestSum(const std::vector<std::vector<double>> &samples)
{
    double sum = 0.0;
    for (const std::vector<double> &xs : samples) {
        if (xs.empty())
            return 0.0;
        sum += *std::min_element(xs.begin(), xs.end());
    }
    return sum;
}

Tracer::Tracer(bool enabled, unsigned tracks)
    : _enabled(enabled), _epoch(Clock::now()), _tracks(tracks)
{
}

double
Tracer::now() const
{
    return at(Clock::now());
}

int64_t
Tracer::begin(unsigned track, const char *name, uint64_t request)
{
    if (!_enabled)
        return -1;
    Track &t = _tracks.at(track);
    Span s;
    s.name = name;
    s.start = now();
    s.parent = t.open.empty() ? -1 : t.open.back();
    s.request = request;
    t.spans.push_back(std::move(s));
    int64_t h = static_cast<int64_t>(t.spans.size() - 1);
    t.open.push_back(h);
    return h;
}

void
Tracer::end(unsigned track, int64_t handle)
{
    if (handle < 0)
        return;
    Track &t = _tracks.at(track);
    t.spans[size_t(handle)].end = now();
    t.open.pop_back();
}

namespace {

/** Self times of one track's spans. */
std::map<std::string, double>
selfTimesOf(const std::vector<Span> &spans)
{
    std::vector<double> covered(spans.size(), 0.0);
    for (const auto &s : spans)
        if (s.parent >= 0)
            covered[size_t(s.parent)] += s.end - s.start;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] += spans[i].end - spans[i].start - covered[i];
    return self;
}

} // namespace

std::map<std::string, double>
Tracer::selfTimes() const
{
    std::map<std::string, double> out;
    for (const auto &t : _tracks)
        for (const auto &[name, s] : selfTimesOf(t.spans))
            out[name] += s;
    return out;
}

double
Tracer::trackSelf(unsigned track) const
{
    double total = 0.0;
    for (const auto &[name, s] : selfTimesOf(_tracks.at(track).spans))
        total += s;
    return total;
}

bool
spansCoverWall(const Tracer &tracer, unsigned track, double wall_s)
{
    return wall_s > 0 &&
           std::fabs(tracer.trackSelf(track) - wall_s) <= 0.01 * wall_s;
}

std::map<std::string, std::pair<size_t, double>>
Tracer::totals() const
{
    std::map<std::string, std::pair<size_t, double>> out;
    for (const auto &t : _tracks)
        for (const auto &s : t.spans) {
            auto &slot = out[s.name];
            ++slot.first;
            slot.second += s.end - s.start;
        }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    // Reuse the simulator's Chrome-trace writer: host microseconds
    // stand in for its cycle timestamps, one tid per track.
    sim::Trace trace;
    trace.setEnabled(true);
    auto record = [&](const std::string &tid, const Span &s) {
        sim::TraceEvent ev;
        ev.name = s.request ? s.name + " #" + std::to_string(s.request)
                            : s.name;
        ev.cat = "perfbench";
        ev.pid = "perfbench";
        ev.tid = tid;
        ev.ts = static_cast<uint64_t>(s.start * 1e6);
        ev.dur = static_cast<uint64_t>((s.end - s.start) * 1e6);
        trace.record(std::move(ev));
    };
    for (size_t i = 0; i < _tracks.size(); ++i)
        for (const auto &s : _tracks[i].spans)
            record("track" + std::to_string(i), s);
    for (const auto &[lane, s] : _slices)
        record(lane, s);
    std::ofstream f(path);
    f << trace.toJson();
    f.flush();
    return bool(f);
}

namespace {

uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

uint64_t
reportJsonDigest(const serve::Json &report)
{
    serve::Json kept = serve::Json::object();
    for (const auto &[key, value] : report.members())
        if (key != "wall_s" && key != "dispatches")
            kept.set(key, value);
    return fnv1a(kept.dump());
}

uint64_t
reportDigest(const sim::SimReport &report)
{
    return reportJsonDigest(serve::reportToJson(report, false));
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

serve::Json
buildStamp()
{
    sim::Simulator probe; // resolves Backend/Fusion::Auto like users get
    serve::Json s = serve::Json::object();
    s.set("build_type", PERFBENCH_BUILD_TYPE);
    s.set("compiler", PERFBENCH_COMPILER);
    s.set("backend", probe.backend() == sim::Backend::Compiled ? "compiled"
                                                              : "interp");
    s.set("fusion", probe.backend() == sim::Backend::Compiled &&
                        probe.fusionEnabled());
    s.set("nproc", std::thread::hardware_concurrency());
    return s;
}

} // namespace perfbench
} // namespace eq
