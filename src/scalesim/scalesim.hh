/**
 * @file
 * A C++ reimplementation of SCALE-Sim's systolic-array cost model
 * (Samajdar et al., arXiv:1811.02883), the baseline of Section VI-C.
 *
 * SCALE-Sim estimates the runtime of a convolution mapped onto an
 * Ah x Aw systolic array under the WS / IS / OS dataflows:
 *
 *  - The stationary tensor is partitioned into folds of at most Ah rows
 *    and Aw columns: folds = ceil(D1/Ah) * ceil(D2/Aw), with D1/D2 as in
 *    the paper's Section VI-E (WS: Fh*Fw*C x N; IS: Fh*Fw*C x Eh*Ew;
 *    OS: N x Fh*Fw*C).
 *  - Each fold preloads the stationary values (Ah cycles, skipped for
 *    OS where accumulation happens in place), then streams T moving
 *    values through the array (WS/OS: T = Eh*Ew, IS: T = N) plus the
 *    fill/drain skew of Ah + Aw - 2 cycles.
 *
 * The model also reports SRAM traffic: every ofmap element leaves the
 * array exactly once (ofmap writes), and the moving operands enter from
 * SRAM on the boundary rows/columns.
 */

#ifndef EQ_SCALESIM_SCALESIM_HH
#define EQ_SCALESIM_SCALESIM_HH

#include <array>
#include <cstdint>
#include <string>

#include "base/fields.hh"

namespace eq {
namespace scalesim {

enum class Dataflow { WS, IS, OS };

/** Wire names of Dataflow, indexed by value. */
constexpr std::array<const char *, 3> kDataflowNames = {"WS", "IS", "OS"};

std::string dataflowName(Dataflow df);

/** Convolution + array configuration (no padding, unit stride). */
struct Config {
    int ah = 4;       ///< array rows
    int aw = 4;       ///< array cols
    Dataflow dataflow = Dataflow::WS;
    int c = 1;        ///< input channels
    int h = 8;        ///< ifmap height
    int w = 8;        ///< ifmap width
    int n = 1;        ///< filter count
    int fh = 2;       ///< filter height
    int fw = 2;       ///< filter width
    int elemBytes = 4;

    int eh() const { return h - fh + 1; }
    int ew() const { return w - fw + 1; }
    /** Stationary-space dims (paper §VI-E). */
    int64_t d1() const;
    int64_t d2() const;
    /** Moving-stream length per fold. */
    int64_t streamLength() const;
    int64_t macs() const
    {
        return int64_t(n) * eh() * ew() * c * fh * fw;
    }

    /** Wire names and accepted ranges, in declaration order. */
    static constexpr auto
    fields()
    {
        return std::make_tuple(
            intField("ah", &Config::ah, 1),
            intField("aw", &Config::aw, 1),
            enumField("df", &Config::dataflow, kDataflowNames),
            intField("c", &Config::c, 0),
            intField("h", &Config::h, 0),
            intField("w", &Config::w, 0),
            intField("n", &Config::n, 0),
            intField("fh", &Config::fh, 0),
            intField("fw", &Config::fw, 0),
            intField("elem_bytes", &Config::elemBytes, 0));
    }

    /** Structural identity: two equal configs generate identical
     *  modules, so batched sweeps may reuse the built module. */
    bool operator==(const Config &o) const { return fieldsEqual(*this, o); }
    bool operator!=(const Config &o) const { return !(*this == o); }

    /** Stable FNV-1a over every field, so caches can key on it; cache
     *  lookups must still verify operator== on a hash hit. */
    uint64_t hash() const { return fieldsHash(*this); }
};

/** Model outputs compared in Fig. 9. */
struct Result {
    uint64_t cycles = 0;
    uint64_t folds = 0;
    uint64_t loopIterations = 0; ///< folds (the paper's Fig. 12c-e metric)
    int64_t sramIfmapReadBytes = 0;
    int64_t sramWeightReadBytes = 0;
    int64_t sramOfmapWriteBytes = 0;
    double avgOfmapWriteBw = 0.0; ///< bytes/cycle
    double avgIfmapReadBw = 0.0;
    /** Peak write bandwidth times the portion of time at peak. */
    double peakWriteBwTimesPortion = 0.0;
};

/** Run the analytic model. */
Result simulate(const Config &cfg);

} // namespace scalesim
} // namespace eq

#endif // EQ_SCALESIM_SCALESIM_HH
