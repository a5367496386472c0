#include "soc/soc.hh"

#include <string>
#include <tuple>
#include <vector>

#include "base/logging.hh"
#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "systolic/pe.hh"

namespace eq {
namespace soc {

namespace {

using ir::OpBuilder;
using ir::Value;
using systolic::addPe;
using systolic::allocOn;
using systolic::emitLoop;
using systolic::emitMacStage;
using systolic::emitMoves;
using systolic::PeRegs;
using systolic::writeCell;

/** One accelerator tile's structure handles. */
struct Tile {
    Value link;     ///< private connection (preload/drain)
    Value stageSrc; ///< staging source in shared SRAM
    Value stageDst; ///< staging destination in tile L1
    Value inHead;   ///< shared-SRAM head feeding the left boundary
    Value in2Head;  ///< shared-SRAM head feeding the top boundary (OS)
    Value outCell;  ///< shared-SRAM cell receiving results
    std::vector<std::vector<Value>> pe;
    std::vector<std::vector<PeRegs>> regs;
};

/** Emitter for the shared-bus multi-accelerator family. */
struct SocEmitter {
    OpBuilder b;
    const SocConfig &cfg;

    Value sram; ///< shared staging SRAM behind the bus
    Value bus;  ///< the contended system connection
    std::vector<Value> dmas;
    std::vector<Tile> tiles;

    SocEmitter(ir::Context &c, const SocConfig &cf) : b(c), cfg(cf) {}

    static bool
    isOs(const TileSpec &t)
    {
        return t.dataflow == scalesim::Dataflow::OS;
    }

    void
    buildStructure(ir::Block *top)
    {
        b.setInsertionPointToEnd(top);
        sram = b.create<equeue::CreateMemOp>(
                    std::string("SRAM"), std::vector<int64_t>{1 << 20},
                    32u, cfg.sramBanks)
                   ->result(0);
        bus = b.create<equeue::CreateConnectionOp>(cfg.busKind,
                                                   cfg.busBytesPerCycle)
                  ->result(0);
        std::string dma_names = "SharedSRAM";
        std::vector<Value> shared{sram};
        for (int d = 0; d < cfg.dmaEngines; ++d) {
            dmas.push_back(b.create<equeue::CreateDmaOp>()->result(0));
            dma_names += " DMA_" + std::to_string(d);
            shared.push_back(dmas.back());
        }
        auto comp = b.create<equeue::CreateCompOp>(dma_names, shared);

        tiles.resize(cfg.accels.size());
        for (size_t a = 0; a < cfg.accels.size(); ++a) {
            const TileSpec &ts = cfg.accels[a];
            Tile &t = tiles[a];
            std::string pfx = "A" + std::to_string(a) + "_";
            t.link = b.create<equeue::CreateConnectionOp>(
                          std::string("Streaming"), ts.linkBytesPerCycle)
                         ->result(0);
            Value l1 = b.create<equeue::CreateMemOp>(
                            std::string("SRAM"),
                            std::vector<int64_t>{4096}, 32u,
                            static_cast<unsigned>(2 * (ts.ah + ts.aw)))
                           ->result(0);
            b.create<equeue::AddCompOp>(comp->result(0), pfx + "L1",
                                        std::vector<Value>{l1});

            int64_t pes = int64_t(ts.ah) * ts.aw;
            t.stageSrc = allocOn(b, sram, pes);
            t.stageDst = allocOn(b, l1, pes);
            t.inHead = allocOn(b, sram, 1);
            t.in2Head = allocOn(b, sram, 1);
            t.outCell = allocOn(b, sram, 1);

            t.pe.assign(ts.ah, std::vector<Value>(ts.aw));
            t.regs.assign(ts.ah, std::vector<PeRegs>(ts.aw));
            for (int h = 0; h < ts.ah; ++h)
                for (int w = 0; w < ts.aw; ++w)
                    std::tie(t.pe[h][w], t.regs[h][w]) =
                        addPe(b, comp->result(0), pfx, h, w);
        }
    }

    /** Preload the stationary value of one WS PE from the tile's staged
     *  L1 tile over the private link (conn-carrying indexed read). */
    Value
    emitPreload(Value dep, size_t a, int h, int w)
    {
        const TileSpec &ts = cfg.accels[a];
        Tile &t = tiles[a];
        const PeRegs &r = t.regs[h][w];
        std::vector<Value> captured{t.stageDst, t.link, r.stat};
        auto launch = b.create<equeue::LaunchOp>(
            std::vector<Value>{dep}, t.pe[h][w], captured,
            std::vector<ir::Type>{});
        {
            OpBuilder::InsertionGuard g(b);
            equeue::LaunchOp l(launch.op());
            b.setInsertionPointToEnd(&l.body());
            Value staged = l.body().argument(0);
            Value link = l.body().argument(1);
            Value stat = l.body().argument(2);
            Value idx = b.create<arith::ConstantOp>(
                             int64_t(h) * ts.aw + w, b.context().indexType())
                            ->result(0);
            Value v = b.create<equeue::ReadOp>(staged, link,
                                               std::vector<Value>{idx})
                          ->result(0);
            writeCell(b, v, stat);
            b.create<equeue::ReturnOp>(std::vector<Value>{});
        }
        return launch->result(0);
    }

    /** Stage R: fetch operands (boundary PEs over the shared bus), MAC,
     *  latch into out-registers. */
    Value
    emitStageR(Value dep, size_t a, int h, int w)
    {
        Tile &t = tiles[a];
        const PeRegs &r = t.regs[h][w];
        const bool left_edge = w == 0;
        const bool top_os = h == 0 && isOs(cfg.accels[a]);
        return emitMacStage(b, dep, t.pe[h][w], r,
                            left_edge ? t.inHead : r.inA,
                            left_edge ? bus : Value(),
                            top_os ? t.in2Head : r.inB,
                            top_os ? bus : Value(),
                            cfg.accels[a].dataflow);
    }

    /** Stage W: pass latched values to neighbors; WS bottom-row PEs
     *  emit partial sums to shared SRAM over the bus. */
    Value
    emitStageW(Value dep, size_t a, int h, int w)
    {
        const TileSpec &ts = cfg.accels[a];
        Tile &t = tiles[a];
        const PeRegs &r = t.regs[h][w];
        bool right_edge = w == ts.aw - 1;
        bool bottom_edge = h == ts.ah - 1;

        Value dst_a, dst_b, dst_acc, conn_acc;
        if (!right_edge)
            dst_a = t.regs[h][w + 1].inA;
        if (isOs(ts)) {
            if (!bottom_edge)
                dst_b = t.regs[h + 1][w].inB;
        } else {
            if (!bottom_edge) {
                dst_acc = t.regs[h + 1][w].acc;
            } else {
                dst_acc = t.outCell; // results exit over the bus
                conn_acc = bus;
            }
        }
        return emitMoves(b, dep, t.pe[h][w], {r.outA, r.outB, r.outAcc},
                         {{0, dst_a}, {1, dst_b}, {2, dst_acc, conn_acc}});
    }

    /** Drain one OS PE's resident accumulator to shared SRAM over the
     *  tile's private link (conn-carrying write). */
    Value
    emitDrain(Value dep, size_t a, int h, int w)
    {
        Tile &t = tiles[a];
        return emitMoves(b, dep, t.pe[h][w], {t.regs[h][w].acc},
                         {{0, t.outCell, t.link}});
    }

    /** One systolic step across every tile: stage R everywhere, one
     *  wide await, stage W everywhere, one wide await. */
    void
    emitStep()
    {
        auto stage_start = b.create<equeue::ControlStartOp>();
        std::vector<Value> reads;
        for (size_t a = 0; a < cfg.accels.size(); ++a)
            for (int h = 0; h < cfg.accels[a].ah; ++h)
                for (int w = 0; w < cfg.accels[a].aw; ++w)
                    reads.push_back(
                        emitStageR(stage_start->result(0), a, h, w));
        b.create<equeue::AwaitOp>(reads);
        auto pass_start = b.create<equeue::ControlStartOp>();
        std::vector<Value> writes;
        for (size_t a = 0; a < cfg.accels.size(); ++a)
            for (int h = 0; h < cfg.accels[a].ah; ++h)
                for (int w = 0; w < cfg.accels[a].aw; ++w)
                    writes.push_back(
                        emitStageW(pass_start->result(0), a, h, w));
        b.create<equeue::AwaitOp>(writes);
    }

    /** One round: stage every tile over the bus (DMA pool contention),
     *  preload stationaries, run the steps, drain OS accumulators. */
    void
    emitRound()
    {
        auto start = b.create<equeue::ControlStartOp>();
        std::vector<Value> copies;
        for (size_t a = 0; a < cfg.accels.size(); ++a) {
            Value dma = dmas[a % dmas.size()];
            copies.push_back(b.create<equeue::MemcpyOp>(
                                  start->result(0), tiles[a].stageSrc,
                                  tiles[a].stageDst, dma, bus)
                                 ->result(0));
        }
        b.create<equeue::AwaitOp>(copies);

        auto pre_start = b.create<equeue::ControlStartOp>();
        std::vector<Value> preloads;
        for (size_t a = 0; a < cfg.accels.size(); ++a)
            if (!isOs(cfg.accels[a]))
                for (int h = 0; h < cfg.accels[a].ah; ++h)
                    for (int w = 0; w < cfg.accels[a].aw; ++w)
                        preloads.push_back(
                            emitPreload(pre_start->result(0), a, h, w));
        if (!preloads.empty())
            b.create<equeue::AwaitOp>(preloads);

        emitLoop(b, cfg.steps, [&] { emitStep(); });

        auto drain_start = b.create<equeue::ControlStartOp>();
        std::vector<Value> drains;
        for (size_t a = 0; a < cfg.accels.size(); ++a)
            if (isOs(cfg.accels[a]))
                for (int h = 0; h < cfg.accels[a].ah; ++h)
                    for (int w = 0; w < cfg.accels[a].aw; ++w)
                        drains.push_back(
                            emitDrain(drain_start->result(0), a, h, w));
        if (!drains.empty())
            b.create<equeue::AwaitOp>(drains);
    }

    void
    buildControl()
    {
        emitLoop(b, cfg.rounds, [&] { emitRound(); });
    }
};

/** Emitter for the buffered layer-pipeline family. */
struct PipelineEmitter {
    ir::Context &ctx;
    OpBuilder b;
    const PipelineConfig &cfg;

    Value sram;   ///< system memory holding source/result tiles
    Value dmaIn;
    Value dmaOut;
    Value connIn;
    Value connOut;
    std::vector<Value> procs; ///< per-stage compute processors
    std::vector<Value> hops;  ///< stage s -> buffer s+1 connections
    std::vector<Value> bufs;  ///< bufs[s] feeds stage s; back() is out
    Value src;
    Value dst;

    PipelineEmitter(ir::Context &c, const PipelineConfig &cf)
        : ctx(c), b(c), cfg(cf)
    {}

    void
    buildStructure(ir::Block *top)
    {
        b.setInsertionPointToEnd(top);
        sram = b.create<equeue::CreateMemOp>(
                    std::string("SRAM"), std::vector<int64_t>{1 << 20},
                    32u, 4u)
                   ->result(0);
        dmaIn = b.create<equeue::CreateDmaOp>()->result(0);
        dmaOut = b.create<equeue::CreateDmaOp>()->result(0);
        connIn = b.create<equeue::CreateConnectionOp>(
                      std::string("Streaming"), cfg.dmaBytesPerCycle)
                     ->result(0);
        connOut = b.create<equeue::CreateConnectionOp>(
                       std::string("Streaming"), cfg.dmaBytesPerCycle)
                      ->result(0);
        auto comp = b.create<equeue::CreateCompOp>(
            std::string("SysSRAM DMA_IN DMA_OUT"),
            std::vector<Value>{sram, dmaIn, dmaOut});

        src = allocOn(b, sram, cfg.tileElems);
        dst = allocOn(b, sram, cfg.tileElems);

        for (int s = 0; s < cfg.stages; ++s) {
            std::string pfx = "S" + std::to_string(s);
            procs.push_back(
                b.create<equeue::CreateProcOp>(std::string("MAC"))
                    ->result(0));
            Value l1 = b.create<equeue::CreateMemOp>(
                            std::string("SRAM"),
                            std::vector<int64_t>{cfg.tileElems}, 32u, 2u)
                           ->result(0);
            b.create<equeue::AddCompOp>(
                comp->result(0), pfx + " " + pfx + "_BUF",
                std::vector<Value>{procs.back(), l1});
            bufs.push_back(allocOn(b, l1, cfg.tileElems));
            hops.push_back(b.create<equeue::CreateConnectionOp>(
                                std::string("Streaming"),
                                cfg.hopBytesPerCycle)
                               ->result(0));
        }
        Value outMem = b.create<equeue::CreateMemOp>(
                            std::string("SRAM"),
                            std::vector<int64_t>{cfg.tileElems}, 32u, 2u)
                           ->result(0);
        b.create<equeue::AddCompOp>(comp->result(0), "OUT_BUF",
                                    std::vector<Value>{outMem});
        bufs.push_back(allocOn(b, outMem, cfg.tileElems));
    }

    /** Stage body: for each element, read the stage input buffer
     *  (plain indexed read — fusable), chain MACs, then push into the
     *  next buffer over the hop connection (unfusable). */
    Value
    emitStage(std::vector<Value> deps, int s)
    {
        std::vector<Value> captured{bufs[s], bufs[s + 1], hops[s]};
        auto launch = b.create<equeue::LaunchOp>(deps, procs[s], captured,
                                                 std::vector<ir::Type>{});
        {
            OpBuilder::InsertionGuard g(b);
            equeue::LaunchOp l(launch.op());
            b.setInsertionPointToEnd(&l.body());
            Value in = l.body().argument(0);
            Value out = l.body().argument(1);
            Value hop = l.body().argument(2);
            auto loop = b.create<affine::ForOp>(int64_t{0},
                                                cfg.tileElems, int64_t{1});
            {
                OpBuilder::InsertionGuard g2(b);
                affine::ForOp f(loop.op());
                b.setInsertionPointToEnd(&f.body());
                Value idx = f.inductionVar();
                Value v = b.create<equeue::ReadOp>(
                               in, Value(), std::vector<Value>{idx})
                              ->result(0);
                Value acc = b.create<arith::ConstantOp>(int64_t{0},
                                                        ctx.i32Type())
                                ->result(0);
                for (int k = 0; k < cfg.computePerElem; ++k)
                    acc = b.create<equeue::ExternOp>(
                               std::string("mac"),
                               std::vector<Value>{v, v, acc},
                               std::vector<ir::Type>{ctx.i32Type()})
                              ->result(0);
                b.create<equeue::WriteOp>(acc, out, hop,
                                          std::vector<Value>{idx});
                b.create<affine::YieldOp>(std::vector<Value>{});
            }
            b.create<equeue::ReturnOp>(std::vector<Value>{});
        }
        return launch->result(0);
    }

    void
    buildControl()
    {
        auto start = b.create<equeue::ControlStartOp>();
        // ev[s] tracks the previous item's stage-s event so item t can
        // wait for the buffer it writes to drain (single buffering).
        std::vector<Value> ev(cfg.stages, Value());
        Value prev_out;
        std::vector<Value> outs;
        for (int t = 0; t < cfg.batches; ++t) {
            // Refill bufs[0] once the previous item's stage 0 read it.
            Value in_dep = ev[0] ? ev[0] : start->result(0);
            Value cp_in = b.create<equeue::MemcpyOp>(in_dep, src, bufs[0],
                                                     dmaIn, connIn)
                              ->result(0);
            Value carry = cp_in;
            std::vector<Value> next(cfg.stages, Value());
            for (int s = 0; s < cfg.stages; ++s) {
                std::vector<Value> deps{carry};
                // Structural hazard: stage s writes bufs[s+1]; wait for
                // the consumer of the previous item to vacate it.
                Value hazard =
                    s + 1 < cfg.stages ? ev[s + 1] : prev_out;
                if (hazard)
                    deps.push_back(hazard);
                carry = emitStage(deps, s);
                next[s] = carry;
            }
            Value cp_out = b.create<equeue::MemcpyOp>(
                                carry, bufs[cfg.stages], dst, dmaOut,
                                connOut)
                               ->result(0);
            outs.push_back(cp_out);
            ev = next;
            prev_out = cp_out;
        }
        b.create<equeue::AwaitOp>(outs);
    }
};

} // namespace

SocConfig
SocConfig::dualSharedBus()
{
    SocConfig cfg;
    cfg.accels = {TileSpec{2, 2, scalesim::Dataflow::WS, 8},
                  TileSpec{2, 2, scalesim::Dataflow::WS, 8}};
    cfg.busBytesPerCycle = 8;
    cfg.busKind = "Streaming";
    cfg.sramBanks = 4;
    cfg.dmaEngines = 1;
    cfg.rounds = 2;
    cfg.steps = 4;
    return cfg;
}

SocConfig
SocConfig::heteroStarved()
{
    SocConfig cfg;
    cfg.accels = {TileSpec{2, 3, scalesim::Dataflow::WS, 8},
                  TileSpec{3, 2, scalesim::Dataflow::OS, 2}};
    cfg.busBytesPerCycle = 4;
    cfg.busKind = "Window"; // exclusive locking: reads block writes
    cfg.sramBanks = 2;
    cfg.dmaEngines = 1;
    cfg.rounds = 2;
    cfg.steps = 3;
    return cfg;
}

PipelineConfig
PipelineConfig::small()
{
    return PipelineConfig{};
}

SocTraffic
expectedSocTraffic(const SocConfig &cfg)
{
    SocTraffic t;
    const int64_t eb = cfg.elemBytes;
    t.linkReadBytes.assign(cfg.accels.size(), 0);
    t.linkWriteBytes.assign(cfg.accels.size(), 0);
    for (size_t a = 0; a < cfg.accels.size(); ++a) {
        const TileSpec &ts = cfg.accels[a];
        const int64_t pes = int64_t(ts.ah) * ts.aw;
        const bool os = ts.dataflow == scalesim::Dataflow::OS;
        // Staging memcpys write tile loads across the bus each round.
        t.busWriteBytes += int64_t(cfg.rounds) * pes * eb;
        // Left-boundary PEs fetch one element over the bus per step.
        t.busReadBytes += int64_t(cfg.rounds) * cfg.steps * ts.ah * eb;
        if (os) {
            // Top-boundary PEs stream the second operand via the bus;
            // resident accumulators drain over the private link.
            t.busReadBytes +=
                int64_t(cfg.rounds) * cfg.steps * ts.aw * eb;
            t.linkWriteBytes[a] += int64_t(cfg.rounds) * pes * eb;
        } else {
            // Stationary preloads arrive over the private link; the
            // bottom row emits partial sums across the bus.
            t.linkReadBytes[a] += int64_t(cfg.rounds) * pes * eb;
            t.busWriteBytes +=
                int64_t(cfg.rounds) * cfg.steps * ts.aw * eb;
        }
    }
    return t;
}

PipelineTraffic
expectedPipelineTraffic(const PipelineConfig &cfg)
{
    PipelineTraffic t;
    const int64_t tile = cfg.tileElems * cfg.elemBytes;
    t.inBytes = int64_t(cfg.batches) * tile;
    t.outBytes = int64_t(cfg.batches) * tile;
    t.hopBytes = int64_t(cfg.batches) * tile;
    return t;
}

ir::OwningOpRef
buildSocModule(ir::Context &ctx, const SocConfig &cfg)
{
    eq_assert(!cfg.accels.empty(), "SoC needs at least one accelerator");
    eq_assert(cfg.dmaEngines >= 1, "SoC needs at least one DMA engine");
    ir::OwningOpRef module = ir::createModule(ctx);
    SocEmitter em(ctx, cfg);
    em.buildStructure(&module->region(0).ensureBlock());
    em.buildControl();
    return module;
}

ir::OwningOpRef
buildPipelineModule(ir::Context &ctx, const PipelineConfig &cfg)
{
    eq_assert(cfg.stages >= 1, "pipeline needs at least one stage");
    eq_assert(cfg.batches >= 1, "pipeline needs at least one item");
    ir::OwningOpRef module = ir::createModule(ctx);
    PipelineEmitter em(ctx, cfg);
    em.buildStructure(&module->region(0).ensureBlock());
    em.buildControl();
    return module;
}

} // namespace soc
} // namespace eq
