/**
 * @file
 * The benchmark's own self-tests: seeded generators are deterministic,
 * the percentile helper refuses thin tails, fastestSum adds each item's
 * fastest repeat, span self time is exact on
 * a synthetic nested trace, and open-loop latency counts from the due
 * time when the generator stalls.
 */

#include <cstdio>
#include <deque>
#include <string>
#include <thread>

#include "loadgen.hh"
#include "support.hh"
#include "workloads.hh"

namespace eq {
namespace perfbench {
namespace {

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool
sameSweep(const std::vector<scalesim::Config> &a,
          const std::vector<scalesim::Config> &b)
{
    return a == b;
}

bool
sameLower(const std::vector<LowerItem> &a, const std::vector<LowerItem> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].cfg != b[i].cfg || a[i].stage != b[i].stage)
            return false;
    return true;
}

bool
sameTraffic(const ServeTraffic &a, const ServeTraffic &b)
{
    return a.universe == b.universe && a.requests == b.requests &&
           a.due == b.due;
}

void
testGenerators()
{
    check(sameSweep(sweepSample(7), sweepSample(7)),
          "sweep-cold: same seed, same points");
    check(!sameSweep(sweepSample(7), sweepSample(8)),
          "sweep-cold: different seed, different order");
    check(sameLower(lowerItems(7), lowerItems(7)),
          "lower-stages: same seed, same items");
    check(!sameLower(lowerItems(7), lowerItems(8)),
          "lower-stages: different seed, different items");
    check(sameTraffic(serveTraffic(7, 500, 100), serveTraffic(7, 500, 100)),
          "serve-mixed: same seed, same universe and requests");
    check(!sameTraffic(serveTraffic(7, 500, 100),
                       serveTraffic(8, 500, 100)),
          "serve-mixed: different seed, different traffic");
    auto t = serveTraffic(7, 500, 100);
    check(t.universe.size() == kUniverseSize && t.requests.size() == 500,
          "serve-mixed: universe of 96 configs");
}

void
testPercentile()
{
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(double(i));
    Percentile p;
    std::string err;
    check(percentile(xs, 0.99, &p, &err) && p.value == 990.0 &&
              p.samples == 1000,
          "p99 of 1..1000 is 990 over 1000 samples");
    xs.pop_back();
    check(!percentile(xs, 0.99, &p, &err),
          "p99 over 999 samples (9 beyond it) is refused");
    std::vector<double> small(19, 1.0);
    check(!percentile(small, 0.5, &p, &err), "p50 over 19 samples refused");
    small.push_back(1.0);
    check(percentile(small, 0.5, &p, &err) && p.samples == 20,
          "p50 over 20 samples states its count");
}

void
testFastestSum()
{
    check(fastestSum({{3, 1, 2}, {5, 4}}) == 5.0,
          "fastestSum adds each item's fastest repeat: 1 + 4");
    check(fastestSum({{1}, {}}) == 0.0,
          "fastestSum of items one of which has no timing is 0");
}

void
testSelfTime()
{
    // root [0,10] > a [1,4] > a.inner [2,3]; root > b [5,9].
    Tracer t(true, 1);
    t.add(0, {"root", 0, 10, -1, 0});
    t.add(0, {"a", 1, 4, 0, 7});
    t.add(0, {"a.inner", 2, 3, 1, 7});
    t.add(0, {"b", 5, 9, 0, 0});
    auto self = t.selfTimes();
    check(self["root"] == 3 && self["a"] == 2 && self["a.inner"] == 1 &&
              self["b"] == 4,
          "self times on a nested trace: root 3, a 2, a.inner 1, b 4");
    check(t.trackSelf(0) == 10, "self times on the track add up to 10");
    check(spansCoverWall(t, 0, 10.05),
          "a track covering 10 s of a 10.05 s wall agrees");
    check(!spansCoverWall(t, 0, 12.0),
          "a track leaving 2 s of a 12 s wall uncovered disagrees");
}

/** A server that answers each request a fixed service time after it
 *  was sent, in order. */
class ScriptedTransport : public Transport {
  public:
    unsigned connections() const override { return 2; }
    bool
    send(unsigned, const std::string &line) override
    {
        serve::Json req;
        std::string err;
        serve::Json::parse(line, &req, &err);
        Reply r;
        r.id = uint64_t(req.getInt("id", 0));
        r.response = serve::Json::object();
        r.response.set("id", r.id);
        r.response.set("ok", true);
        r.at = Clock::now() + std::chrono::milliseconds(1);
        _pending.push_back(std::move(r));
        return true;
    }
    bool
    poll(Clock::time_point deadline, std::vector<Reply> *out) override
    {
        if (_pending.empty() || _pending.front().at > deadline) {
            std::this_thread::sleep_until(deadline);
            return true;
        }
        std::this_thread::sleep_until(_pending.front().at);
        while (!_pending.empty() && _pending.front().at <= Clock::now()) {
            out->push_back(_pending.front());
            _pending.pop_front();
        }
        return true;
    }

  private:
    std::deque<Reply> _pending;
};

void
testStallCountsFromDue()
{
    // 50 requests due every 2 ms; the generator stalls 40 ms before
    // sending request 10, so requests 10..29 all go out late.
    std::vector<double> due;
    for (int i = 0; i < 50; ++i)
        due.push_back(0.002 * i);
    ScriptedTransport t;
    auto line = [](uint32_t, uint64_t id) {
        serve::Json j = serve::Json::object();
        j.set("id", id);
        return j.dump();
    };
    auto outs = runOpenLoop(
        t, due, line, Clock::now(), 1.0, [](uint32_t i) {
            if (i == 10)
                std::this_thread::sleep_for(std::chrono::milliseconds(40));
        });
    bool all = true;
    for (const auto &o : outs)
        all = all && o.answered && o.latencyMs >= o.lateMs + o.rttMs - 1e-6;
    check(all, "open loop: latency = lateness + round trip for every request");
    check(outs[10].lateMs >= 40.0 && outs[10].latencyMs >= 41.0,
          "open loop: the stalled request counts the 40 ms stall");
    check(outs[20].lateMs >= 15.0,
          "open loop: requests due during the stall count their wait");
    check(outs[10].rttMs < 20.0,
          "open loop: the round trip alone does not see the stall");
}

} // namespace
} // namespace perfbench
} // namespace eq

int
runSelfTest()
{
    using namespace eq::perfbench;
    testGenerators();
    testPercentile();
    testFastestSum();
    testSelfTime();
    testStallCountsFromDue();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed",
                g_failures);
    return g_failures ? 1 : 0;
}
