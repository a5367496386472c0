/**
 * @file
 * Seeded model keys for differential tests: the same seed always gives
 * the same keys, so a failing key can be rebuilt from the seed and its
 * index. The systolic keys cover all three dataflows, 1-wide arrays,
 * partial folds (d1 or d2 not a multiple of the array side), filters as
 * tall as the ifmap (fh == h) and filter counts up to a few hundred,
 * with the host work of each key capped so that the interpreter runs
 * every key in a fraction of a second. A config-space fuzzer draws from
 * here too.
 */

#ifndef EQ_TESTS_CONFIG_KEYS_HH
#define EQ_TESTS_CONFIG_KEYS_HH

#include <cstdint>
#include <random>
#include <vector>

#include "scalesim/scalesim.hh"
#include "serve/models.hh"

namespace eq {
namespace test {

/** Folds of @p cfg: the stationary tiles its array loads in turn. */
inline int64_t
folds(const scalesim::Config &cfg)
{
    return (cfg.d1() + cfg.ah - 1) / cfg.ah *
           ((cfg.d2() + cfg.aw - 1) / cfg.aw);
}

/** PE-steps of @p cfg: array size times systolic steps (stream and
 *  drain steps of every fold), the unit its host work grows with. */
inline int64_t
peSteps(const scalesim::Config &cfg)
{
    return int64_t(cfg.ah) * cfg.aw * folds(cfg) *
           (cfg.streamLength() + cfg.ah + cfg.aw - 2);
}

/**
 * @p count systolic keys from @p seed, each of at most @p max_pe_steps
 * PE-steps and at least @p min_folds folds. Key i takes dataflow i % 3;
 * every fifth key has one array row, every seventh one column; every
 * fourth key's filter is as tall as its ifmap; every sixth draws its
 * filter count from 100..300.
 */
inline std::vector<serve::ModelKey>
systolicKeys(uint64_t seed, size_t count, int64_t max_pe_steps = 40000,
             int64_t min_folds = 1)
{
    static constexpr scalesim::Dataflow kFlows[] = {
        scalesim::Dataflow::WS, scalesim::Dataflow::IS,
        scalesim::Dataflow::OS};
    // The standard fixes mt19937_64's sequence, so a seed gives the
    // same keys everywhere.
    std::mt19937_64 gen(seed);
    auto in = [&gen](int lo, int hi) {
        return lo + static_cast<int>(gen() % uint64_t(hi - lo + 1));
    };
    std::vector<serve::ModelKey> keys;
    while (keys.size() < count) {
        const size_t k = keys.size();
        scalesim::Config cfg;
        cfg.dataflow = kFlows[k % 3];
        cfg.ah = k % 5 == 0 ? 1 : in(1, 6);
        cfg.aw = k % 7 == 1 ? 1 : in(1, 6);
        cfg.h = in(2, 7);
        cfg.w = in(2, 7);
        cfg.fh = k % 4 == 2 ? cfg.h : in(1, cfg.h);
        cfg.fw = in(1, cfg.w);
        cfg.c = in(1, 3);
        cfg.n = k % 6 == 0 ? in(100, 300) : in(1, 40);
        if (peSteps(cfg) <= max_pe_steps && folds(cfg) >= min_folds)
            keys.push_back(serve::ModelKey::systolicKey(cfg));
    }
    return keys;
}

/** A few SoC and pipeline keys: the family defaults and variants that
 *  change the bus, the tiles, the rounds and the pipeline's shape. */
inline std::vector<serve::ModelKey>
socAndPipelineKeys()
{
    std::vector<serve::ModelKey> keys;
    soc::SocConfig soc;
    keys.push_back(serve::ModelKey::socKey(soc));
    soc.busKind = "Window";
    soc.rounds = 5;
    keys.push_back(serve::ModelKey::socKey(soc));
    soc = soc::SocConfig();
    soc.accels.resize(3);
    soc.accels[1].dataflow = scalesim::Dataflow::OS;
    soc.steps = 9;
    keys.push_back(serve::ModelKey::socKey(soc));
    soc::PipelineConfig pipe;
    keys.push_back(serve::ModelKey::pipelineKey(pipe));
    pipe.stages = 2;
    pipe.batches = 20;
    keys.push_back(serve::ModelKey::pipelineKey(pipe));
    return keys;
}

} // namespace test
} // namespace eq

#endif // EQ_TESTS_CONFIG_KEYS_HH
