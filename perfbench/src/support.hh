/**
 * @file
 * Shared pieces of the benchmark driver: a seeded generator, the
 * percentile helper, in-memory spans with self-time accounting and
 * Chrome-trace export, and the digest of simulated statistics.
 */

#ifndef EQ_PERFBENCH_SUPPORT_HH
#define EQ_PERFBENCH_SUPPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/report.hh"

namespace eq {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64: the only source of randomness in a workload, so one
 *  seed fixes every generated input. */
class Rng {
  public:
    explicit Rng(uint64_t seed) : _s(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t _s;
};

/** A percentile with the sample count it was taken over. */
struct Percentile {
    double value = 0.0;
    size_t samples = 0;
};

/**
 * Nearest-rank percentile @p q (0 < q < 1) of @p xs. Refuses (returns
 * false with @p err) when fewer than 10 samples lie beyond it, so a
 * reported tail is never one or two outliers.
 */
bool percentile(std::vector<double> xs, double q, Percentile *out,
                std::string *err);

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/**
 * Sum over items of each item's fastest repeated timing (0 when an item
 * has none): the time of one pass over every item at the host's full
 * speed. The repeats of an item fall in different stretches of a run,
 * and on a shared host the same code runs up to 1.7x slower in some
 * stretches than in others (see perfbench/README.md); the host's load
 * only ever adds time, so an item's fastest repeat is its own cost.
 */
double fastestSum(const std::vector<std::vector<double>> &samples);

/** One closed span: name, [start, end) in seconds from the tracer's
 *  epoch, the enclosing span on the same track (-1 for a root), and
 *  the request it belongs to (0 when none). */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t request = 0;
};

/**
 * In-memory spans, one track per thread slot. A track is written by
 * one thread at a time (sweep worker ids are stable per thread), so
 * tracks need no lock; a disabled tracer records nothing.
 */
class Tracer {
  public:
    Tracer(bool enabled, unsigned tracks);

    /** Open a span on @p track; close it with end(). Returns a handle
     *  (the span's index) or -1 when tracing is off. */
    int64_t begin(unsigned track, const char *name, uint64_t request = 0);
    void end(unsigned track, int64_t handle);

    /** Scoped span. */
    class Scope {
      public:
        Scope(Tracer &t, unsigned track, const char *name,
              uint64_t request = 0)
            : _t(t), _track(track), _h(t.begin(track, name, request))
        {
        }
        ~Scope() { _t.end(_track, _h); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &_t;
        unsigned _track;
        int64_t _h;
    };

    /** Total self time (seconds) per span name over every track: a
     *  span's duration minus the part its direct children cover. */
    std::map<std::string, double> selfTimes() const;
    /** Sum of the self times of every span on @p track (seconds). */
    double trackSelf(unsigned track) const;
    unsigned tracks() const { return unsigned(_tracks.size()); }
    /** Count and total duration per span name. */
    std::map<std::string, std::pair<size_t, double>> totals() const;

    /** Write every span as Chrome trace events ("X" slices, one tid
     *  per track); false on I/O error. */
    bool writeChrome(const std::string &path) const;

    /** Seconds from the tracer's epoch to @p t. */
    double at(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - _epoch).count();
    }

    /** Export-only slice on a named lane: for spans that overlap on one
     *  thread (pipelined requests). Slices take no part in self time. */
    void addSlice(const std::string &lane, Span s)
    {
        if (_enabled)
            _slices.emplace_back(lane, std::move(s));
    }

    /** Test seam: append an already-closed span. */
    void add(unsigned track, Span s) { _tracks.at(track).spans.push_back(s); }

  private:
    struct Track {
        std::vector<Span> spans;
        std::vector<int64_t> open;
    };
    double now() const;

    bool _enabled;
    Clock::time_point _epoch;
    std::vector<Track> _tracks;
    std::vector<std::pair<std::string, Span>> _slices;
};

/** The traced run's closure check: true when the span self times on
 *  @p track add up to @p wall_s, the wall time the workload measured for
 *  that track with its own clock, within 1%. */
bool spansCoverWall(const Tracer &tracer, unsigned track, double wall_s);

/**
 * Digest of a report's simulated statistics: every field of
 * reportToJson except the host wall time and the backend-dependent
 * dispatch count, folded with FNV-1a. Equal digests mean the same
 * cycles, ops, events, bytes and utilizations.
 */
uint64_t reportDigest(const sim::SimReport &report);
/** The same digest over an already serialized report (the served
 *  "report" object). */
uint64_t reportJsonDigest(const serve::Json &report);

/** Order-independent combination of per-item digests. */
inline uint64_t
mixDigest(uint64_t acc, uint64_t item)
{
    return acc + item * 0x9e3779b97f4a7c15ull;
}

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMb();

/** Resolved engine configuration and build stamp, for every result. */
serve::Json buildStamp();

} // namespace perfbench
} // namespace eq

#endif // EQ_PERFBENCH_SUPPORT_HH
