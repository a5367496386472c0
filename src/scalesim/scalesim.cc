#include "scalesim/scalesim.hh"

#include <algorithm>

#include "base/logging.hh"

namespace eq {
namespace scalesim {

std::string
dataflowName(Dataflow df)
{
    const size_t i = size_t(df);
    return i < kDataflowNames.size() ? kDataflowNames[i] : "?";
}

int64_t
Config::d1() const
{
    switch (dataflow) {
      case Dataflow::WS:
      case Dataflow::IS:
        return int64_t(fh) * fw * c;
      case Dataflow::OS:
        return n;
    }
    return 0;
}

int64_t
Config::d2() const
{
    switch (dataflow) {
      case Dataflow::WS:
        return n;
      case Dataflow::IS:
        return int64_t(eh()) * ew();
      case Dataflow::OS:
        return int64_t(fh) * fw * c;
    }
    return 0;
}

int64_t
Config::streamLength() const
{
    switch (dataflow) {
      case Dataflow::WS:
      case Dataflow::OS:
        return int64_t(eh()) * ew();
      case Dataflow::IS:
        return n;
    }
    return 0;
}

Result
simulate(const Config &cfg)
{
    eq_assert(cfg.ah > 0 && cfg.aw > 0, "array dims must be positive");
    eq_assert(cfg.h >= cfg.fh && cfg.w >= cfg.fw,
              "filter larger than ifmap");

    Result r;
    const int64_t d1 = cfg.d1();
    const int64_t d2 = cfg.d2();
    const int64_t t = cfg.streamLength();
    const int64_t skew = cfg.ah + cfg.aw - 2;
    const int64_t folds_r = (d1 + cfg.ah - 1) / cfg.ah;
    const int64_t folds_c = (d2 + cfg.aw - 1) / cfg.aw;
    const bool preloads = cfg.dataflow != Dataflow::OS;
    const int64_t eb = cfg.elemBytes;

    int64_t peak_write_elems = 0;

    // The fold space is piecewise-uniform: every interior fold is a
    // full Ah x Aw tile; only the tail row-fold and tail column-fold
    // are ragged. Accumulate per distinct (r_eff, c_eff) combination
    // scaled by its multiplicity — at most 4 combinations — instead of
    // walking every fold (large sweeps hit millions of folds).
    const int64_t full_r = d1 / cfg.ah;
    const int64_t tail_r = d1 - full_r * cfg.ah; // 0 when d1 divides
    const int64_t full_c = d2 / cfg.aw;
    const int64_t tail_c = d2 - full_c * cfg.aw;
    struct Span {
        int64_t eff, count;
    };
    const Span rows[2] = {{cfg.ah, full_r}, {tail_r, tail_r > 0 ? 1 : 0}};
    const Span cols[2] = {{cfg.aw, full_c}, {tail_c, tail_c > 0 ? 1 : 0}};

    for (const Span &rs : rows) {
        for (const Span &cs : cols) {
            const int64_t n = rs.count * cs.count;
            if (n == 0)
                continue;
            const int64_t r_eff = rs.eff;
            const int64_t c_eff = cs.eff;
            // Stationary preload streams r_eff x c_eff values through an
            // Aw-wide port.
            int64_t preload =
                preloads ? (r_eff * c_eff + cfg.aw - 1) / cfg.aw : 0;
            r.cycles += static_cast<uint64_t>(n) *
                        static_cast<uint64_t>(preload + t + skew);

            switch (cfg.dataflow) {
              case Dataflow::WS:
                r.sramIfmapReadBytes += n * t * r_eff * eb; // col-0 stream
                r.sramWeightReadBytes += n * r_eff * c_eff * eb; // preload
                r.sramOfmapWriteBytes += n * t * c_eff * eb; // bottom row
                peak_write_elems = std::max(peak_write_elems, c_eff);
                break;
              case Dataflow::IS:
                r.sramWeightReadBytes += n * t * r_eff * eb; // col-0 strm
                r.sramIfmapReadBytes += n * r_eff * c_eff * eb; // preload
                r.sramOfmapWriteBytes += n * t * c_eff * eb; // bottom row
                peak_write_elems = std::max(peak_write_elems, c_eff);
                break;
              case Dataflow::OS:
                r.sramIfmapReadBytes += n * t * r_eff * eb; // col-0 strm
                r.sramWeightReadBytes += n * t * c_eff * eb; // row-0 strm
                r.sramOfmapWriteBytes += n * t * r_eff * eb; // last col
                peak_write_elems = std::max(peak_write_elems, r_eff);
                break;
            }
        }
    }

    r.folds = static_cast<uint64_t>(folds_r * folds_c);
    r.loopIterations = r.folds;

    double cyc = std::max<double>(1.0, double(r.cycles));
    r.avgOfmapWriteBw = r.sramOfmapWriteBytes / cyc;
    r.avgIfmapReadBw = r.sramIfmapReadBytes / cyc;
    // Peak write bandwidth x portion: the array emits peak_write_elems
    // per cycle during the streaming phase of each fold.
    double portion = double(t) * double(r.folds) / cyc;
    r.peakWriteBwTimesPortion = double(peak_write_elems * eb) * portion;
    return r;
}

} // namespace scalesim
} // namespace eq
