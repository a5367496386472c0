/**
 * @file
 * The building blocks of a systolic PE array, shared by every
 * generator that emits one (the systolic generator and the SoC
 * family's tiles): a MAC processing element with its register cells,
 * cell reads and writes, counted loops, and the two per-PE launches
 * of a systolic step — the MAC stage and the register moves.
 *
 * Each block is a free function over the caller's ir::OpBuilder and
 * emits at its insertion point. Which cells a PE reads and writes, and
 * over which connections, is the caller's choice; the blocks only fix
 * how a PE computes and passes values on.
 */

#ifndef EQ_SYSTOLIC_PE_HH
#define EQ_SYSTOLIC_PE_HH

#include <initializer_list>
#include <string>
#include <utility>

#include "dialects/affine.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "scalesim/scalesim.hh"

namespace eq {
namespace systolic {

/** Per-PE register cells. */
struct PeRegs {
    ir::Value inA;    ///< moving operand arriving from the left
    ir::Value inB;    ///< second moving operand from above (OS)
    ir::Value acc;    ///< partial sum from above / resident (OS)
    ir::Value outA;   ///< latched moving operand to pass right
    ir::Value outB;   ///< latched second operand to pass down (OS)
    ir::Value outAcc; ///< latched partial sum to pass down
    ir::Value stat;   ///< stationary value (WS: weight, IS: ifmap)
};

/** A 32-bit buffer of @p elems words on memory @p mem. */
inline ir::Value
allocOn(ir::OpBuilder &b, ir::Value mem, int64_t elems)
{
    return b.create<equeue::AllocOp>(mem, ir::ArrayRef<int64_t>{elems}, 32u)
        ->result(0);
}

/** Read the whole of @p buf, over @p conn when one is given. */
inline ir::Value
readCell(ir::OpBuilder &b, ir::Value buf, ir::Value conn = {})
{
    return b.create<equeue::ReadOp>(buf, conn)->result(0);
}

/** Write @p v to the whole of @p buf, over @p conn when one is given. */
inline void
writeCell(ir::OpBuilder &b, ir::Value v, ir::Value buf, ir::Value conn = {})
{
    b.create<equeue::WriteOp>(v, buf, conn);
}

/** A counted loop of @p trip iterations whose body @p body emits;
 *  nothing when @p trip <= 0. */
template <typename Body>
void
emitLoop(ir::OpBuilder &b, int64_t trip, Body &&body)
{
    if (trip <= 0)
        return;
    auto loop = b.create<affine::ForOp>(int64_t{0}, trip, int64_t{1});
    ir::OpBuilder::InsertionGuard g(b);
    b.setInsertionPointToEnd(&affine::ForOp(loop.op()).body());
    body();
    b.create<affine::YieldOp>();
}

/**
 * A PE at (@p h, @p w): a MAC processor and its 16-word register file,
 * added to @p comp as "<prefix>PE_h_w <prefix>REG_h_w", then its
 * register cells. Returns the processor and the cells.
 */
inline std::pair<ir::Value, PeRegs>
addPe(ir::OpBuilder &b, ir::Value comp, const std::string &prefix, int h,
      int w)
{
    ir::Value pe =
        b.create<equeue::CreateProcOp>(std::string("MAC"))->result(0);
    ir::Value rmem = b.create<equeue::CreateMemOp>(
                          std::string("Register"),
                          ir::ArrayRef<int64_t>{16}, 32u, 8u)
                         ->result(0);
    const std::string suffix = std::to_string(h) + "_" + std::to_string(w);
    b.create<equeue::AddCompOp>(
        comp, prefix + "PE_" + suffix + " " + prefix + "REG_" + suffix,
        ir::ValueRange{pe, rmem});
    PeRegs r;
    r.inA = allocOn(b, rmem, 1);
    r.inB = allocOn(b, rmem, 1);
    r.acc = allocOn(b, rmem, 1);
    r.outA = allocOn(b, rmem, 1);
    r.outB = allocOn(b, rmem, 1);
    r.outAcc = allocOn(b, rmem, 1);
    r.stat = allocOn(b, rmem, 1);
    return {pe, r};
}

/**
 * The MAC stage of one PE, launched on @p pe after @p dep: read the
 * moving operand from @p srcA (over @p connA when given) and multiply
 * it with the stationary value, or under OS with the second operand
 * from @p srcB (over @p connB), latching that operand for the PE
 * below. The product accumulates into the partial sum, which is
 * latched to pass down, or under OS stays resident. The moving operand
 * is latched to pass right. Returns the launch's done event.
 */
inline ir::Value
emitMacStage(ir::OpBuilder &b, ir::Value dep, ir::Value pe,
             const PeRegs &regs, ir::Value srcA, ir::Value connA,
             ir::Value srcB, ir::Value connB, scalesim::Dataflow dataflow)
{
    ir::SmallVector<ir::Value, 16> captured;
    captured.append({srcA, srcB, regs.acc, regs.stat, regs.outA, regs.outB,
                     regs.outAcc});
    if (connA)
        captured.push_back(connA);
    if (connB)
        captured.push_back(connB);
    auto launch =
        b.create<equeue::LaunchOp>(ir::ValueRange{dep}, pe, captured);
    ir::OpBuilder::InsertionGuard g(b);
    ir::Block &body = equeue::LaunchOp(launch.op()).body();
    b.setInsertionPointToEnd(&body);
    unsigned arg = 7;
    ir::Value ca = connA ? body.argument(arg++) : ir::Value();
    ir::Value cb = connB ? body.argument(arg++) : ir::Value();

    ir::Value a = readCell(b, body.argument(0), ca);
    ir::Value operand, acc;
    if (dataflow == scalesim::Dataflow::OS) {
        operand = readCell(b, body.argument(1), cb);
        acc = readCell(b, body.argument(2));
        writeCell(b, operand, body.argument(5));
    } else {
        operand = readCell(b, body.argument(3));
        acc = readCell(b, body.argument(2));
    }
    ir::Value sum = b.create<equeue::ExternOp>(
                         std::string("mac"), ir::ValueRange{a, operand, acc},
                         ir::TypeRange{b.context().i32Type()})
                        ->result(0);
    if (dataflow == scalesim::Dataflow::OS)
        writeCell(b, sum, body.argument(2)); // resident accumulate
    else
        writeCell(b, sum, body.argument(6));
    writeCell(b, a, body.argument(4));
    b.create<equeue::ReturnOp>();
    return launch->result(0);
}

/** One register move: copy sources[src] to @p dst, over @p conn when
 *  given. A move without a destination is skipped. */
struct Move {
    unsigned src = 0;
    ir::Value dst;
    ir::Value conn = {};
};

/**
 * A launch on @p pe after @p dep that performs @p moves in order. It
 * captures @p sources, then each present move's destination and
 * connection. Returns the launch's done event.
 */
inline ir::Value
emitMoves(ir::OpBuilder &b, ir::Value dep, ir::Value pe,
          std::initializer_list<ir::Value> sources,
          std::initializer_list<Move> moves)
{
    ir::SmallVector<ir::Value, 16> captured;
    captured.append(sources);
    for (const Move &m : moves) {
        if (!m.dst)
            continue;
        captured.push_back(m.dst);
        if (m.conn)
            captured.push_back(m.conn);
    }
    auto launch =
        b.create<equeue::LaunchOp>(ir::ValueRange{dep}, pe, captured);
    ir::OpBuilder::InsertionGuard g(b);
    ir::Block &body = equeue::LaunchOp(launch.op()).body();
    b.setInsertionPointToEnd(&body);
    unsigned arg = unsigned(sources.size());
    for (const Move &m : moves) {
        if (!m.dst)
            continue;
        ir::Value v = readCell(b, body.argument(m.src));
        ir::Value dst = body.argument(arg++);
        writeCell(b, v, dst, m.conn ? body.argument(arg++) : ir::Value());
    }
    b.create<equeue::ReturnOp>();
    return launch->result(0);
}

} // namespace systolic
} // namespace eq

#endif // EQ_SYSTOLIC_PE_HH
