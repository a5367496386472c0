#include "systolic/generator.hh"

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "base/logging.hh"
#include "dialects/equeue.hh"
#include "systolic/pe.hh"

namespace eq {
namespace systolic {

namespace {

using ir::OpBuilder;
using ir::Value;

/** Builder state shared by the emission helpers. */
struct Emitter {
    OpBuilder b;
    const Config &cfg;
    EmitOptions opts;

    Value sram;
    Value dma;
    Value stageMem;
    Value wconn;
    Value streamIn;   ///< SRAM head feeding the left boundary
    Value streamIn2;  ///< SRAM head feeding the top boundary (OS)
    Value ofOut;      ///< SRAM cell receiving outputs
    std::vector<std::vector<Value>> pe; ///< [h][w] processors
    std::vector<std::vector<PeRegs>> regs;
    /** Stationary staging buffers per distinct fold shape. */
    std::map<int64_t, std::pair<Value, Value>> stagePairs;

    Emitter(ir::Context &c, const Config &cf, const EmitOptions &o)
        : b(c), cfg(cf), opts(o)
    {}

    void
    buildStructure(ir::Block *top)
    {
        b.setInsertionPointToEnd(top);
        // Bank count covers the worst per-cycle port demand (OS streams
        // ifmaps and weights while draining outputs: 2*(Ah+Aw) ports);
        // SCALE-Sim assumes SRAM bandwidth is never the bottleneck, and
        // with fewer banks the engine's contention model adds real
        // stalls (see the SramBankContention ablation bench).
        sram = b.create<equeue::CreateMemOp>(
                    std::string("SRAM"), std::vector<int64_t>{1 << 20},
                    32u, static_cast<unsigned>(2 * (cfg.ah + cfg.aw)))
                   ->result(0);
        dma = b.create<equeue::CreateDmaOp>()->result(0);
        stageMem = b.create<equeue::CreateMemOp>(
                        std::string("Register"),
                        std::vector<int64_t>{4096}, 32u,
                        static_cast<unsigned>(cfg.aw))
                       ->result(0);
        // The stationary tensor streams through an Aw-words/cycle port.
        wconn = b.create<equeue::CreateConnectionOp>(
                     std::string("Streaming"),
                     int64_t(cfg.aw) * cfg.elemBytes)
                    ->result(0);
        auto comp = b.create<equeue::CreateCompOp>(
            std::string("SRAM DMA StageRegs"),
            std::vector<Value>{sram, stageMem, dma});

        streamIn = allocOn(b, sram, 1);
        streamIn2 = allocOn(b, sram, 1);
        ofOut = allocOn(b, sram, 1);

        pe.assign(cfg.ah, std::vector<Value>(cfg.aw));
        regs.assign(cfg.ah, std::vector<PeRegs>(cfg.aw));
        for (int h = 0; h < cfg.ah; ++h)
            for (int w = 0; w < cfg.aw; ++w)
                std::tie(pe[h][w], regs[h][w]) =
                    addPe(b, comp->result(0), "", h, w);
    }

    /** Staging source/dest buffers for a fold loading @p words values. */
    std::pair<Value, Value>
    stagePair(int64_t words)
    {
        auto it = stagePairs.find(words);
        if (it != stagePairs.end())
            return it->second;
        Value src = allocOn(b, sram, words);
        Value dst = allocOn(b, stageMem, words);
        stagePairs[words] = {src, dst};
        return {src, dst};
    }

    /**
     * Stage R for PE (h,w): read operands, MAC, latch outputs into the
     * PE's own out-registers.
     * @param boundary_sram when true, the left/top boundary operands are
     *        fetched from SRAM stream heads (streaming phase); otherwise
     *        from the local in-registers (drain phase).
     */
    Value
    emitStageR(Value dep, int h, int w, bool boundary_sram)
    {
        const PeRegs &r = regs[h][w];
        bool left_edge = w == 0;
        bool top_edge = h == 0;
        Value src_a = (left_edge && boundary_sram) ? streamIn : r.inA;
        Value src_b = r.inB;
        if (cfg.dataflow == Dataflow::OS && top_edge && boundary_sram)
            src_b = streamIn2;
        return emitMacStage(b, dep, pe[h][w], r, src_a, {}, src_b, {},
                            cfg.dataflow);
    }

    /**
     * Stage W for PE (h,w): pass latched values to neighbor registers;
     * boundary PEs emit results to SRAM during the streaming phase.
     */
    Value
    emitStageW(Value dep, int h, int w, int r_eff, int c_eff,
               bool emit_sram)
    {
        const PeRegs &r = regs[h][w];
        bool right_edge = w == c_eff - 1;
        bool bottom_edge = h == r_eff - 1;

        Value dst_a, dst_b, dst_acc;
        if (!right_edge)
            dst_a = regs[h][w + 1].inA;
        if (cfg.dataflow == Dataflow::OS) {
            if (!bottom_edge)
                dst_b = regs[h + 1][w].inB;
            if (right_edge && emit_sram)
                dst_acc = ofOut; // outputs exit the last column
        } else {
            if (!bottom_edge)
                dst_acc = regs[h + 1][w].acc;
            else if (emit_sram)
                dst_acc = ofOut; // outputs exit the bottom row
        }
        // OS drains the resident accumulator, the others the latched
        // partial sum.
        unsigned acc_src = cfg.dataflow == Dataflow::OS ? 3 : 2;
        return emitMoves(b, dep, pe[h][w], {r.outA, r.outB, r.outAcc, r.acc},
                         {{0, dst_a}, {1, dst_b}, {acc_src, dst_acc}});
    }

    /** One systolic step: stage R on all active PEs, await, stage W,
     *  await. Emitted inside the current insertion point (a loop body). */
    void
    emitStep(int r_eff, int c_eff, bool streaming)
    {
        auto stage_start = b.create<equeue::ControlStartOp>();
        std::vector<Value> reads;
        reads.reserve(r_eff * c_eff);
        for (int h = 0; h < r_eff; ++h)
            for (int w = 0; w < c_eff; ++w)
                reads.push_back(emitStageR(stage_start->result(0), h, w,
                                           streaming));
        b.create<equeue::AwaitOp>(reads);
        auto pass_start = b.create<equeue::ControlStartOp>();
        std::vector<Value> writes;
        writes.reserve(r_eff * c_eff);
        for (int h = 0; h < r_eff; ++h)
            for (int w = 0; w < c_eff; ++w)
                writes.push_back(emitStageW(pass_start->result(0), h, w,
                                            r_eff, c_eff, streaming));
        b.create<equeue::AwaitOp>(writes);
    }

    void
    buildControl()
    {
        const int64_t d1 = cfg.d1();
        const int64_t d2 = cfg.d2();
        const int64_t t = cfg.streamLength();
        const int64_t skew = cfg.ah + cfg.aw - 2;
        const int64_t folds_r = (d1 + cfg.ah - 1) / cfg.ah;
        const int64_t folds_c = (d2 + cfg.aw - 1) / cfg.aw;
        const bool preloads = cfg.dataflow != Dataflow::OS;

        // Fold shapes repeat; emit one loop per distinct (r_eff, c_eff)
        // combination with the repeat count, preserving total work.
        struct FoldShape {
            int64_t r_eff, c_eff, count;
        };
        std::vector<FoldShape> shapes;
        for (int64_t fr = 0; fr < folds_r; ++fr) {
            int64_t r_eff = std::min<int64_t>(cfg.ah, d1 - fr * cfg.ah);
            for (int64_t fc = 0; fc < folds_c; ++fc) {
                int64_t c_eff =
                    std::min<int64_t>(cfg.aw, d2 - fc * cfg.aw);
                bool merged = false;
                for (auto &s : shapes) {
                    if (s.r_eff == r_eff && s.c_eff == c_eff) {
                        ++s.count;
                        merged = true;
                        break;
                    }
                }
                if (!merged)
                    shapes.push_back({r_eff, c_eff, 1});
            }
        }

        for (size_t si = 0; si < shapes.size(); ++si) {
            const auto &shape = shapes[si];
            int r_eff = static_cast<int>(shape.r_eff);
            int c_eff = static_cast<int>(shape.c_eff);
            bool last_shape = si + 1 == shapes.size();
            auto emit_fold = [&](bool with_drain) {
                if (preloads) {
                    auto [src, dst] =
                        stagePair(shape.r_eff * shape.c_eff);
                    auto dep = b.create<equeue::ControlStartOp>();
                    auto cp = b.create<equeue::MemcpyOp>(
                        dep->result(0), src, dst, dma, wconn);
                    b.create<equeue::AwaitOp>(ir::ValueRange{cp->result(0)});
                }
                emitLoop(b, t, [&] { emitStep(r_eff, c_eff, true); });
                if (with_drain)
                    emitLoop(b, skew,
                             [&] { emitStep(r_eff, c_eff, false); });
            };
            bool split_last = last_shape && opts.skipFinalDrain;
            int64_t counted = split_last ? shape.count - 1 : shape.count;
            emitLoop(b, counted, [&] { emit_fold(true); });
            if (split_last)
                emit_fold(false); // final fold: no cool-down modeled
        }
    }
};

} // namespace

ir::OwningOpRef
buildSystolicModule(ir::Context &ctx, const Config &cfg,
                    const EmitOptions &opts)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    emitSystolicInto(module.get(), cfg, opts);
    return module;
}

void
emitSystolicInto(ir::Operation *module, const Config &cfg,
                 const EmitOptions &opts)
{
    eq_assert(cfg.h >= cfg.fh && cfg.w >= cfg.fw,
              "filter larger than ifmap");
    Emitter em(module->context(), cfg, opts);
    em.buildStructure(&module->region(0).ensureBlock());
    em.buildControl();
}

uint64_t
expectedCycles(const Config &cfg)
{
    return scalesim::simulate(cfg).cycles;
}

uint64_t
loopIterations(const Config &cfg)
{
    return scalesim::simulate(cfg).folds;
}

} // namespace systolic
} // namespace eq
