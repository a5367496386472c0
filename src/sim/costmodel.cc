#include "sim/costmodel.hh"

#include "base/stringutil.hh"
#include "dialects/linalg.hh"
#include "ir/builder.hh"

namespace eq {
namespace sim {

namespace {

/** Event/bookkeeping operations never occupy the processor datapath:
 *  they are dispatched to event queues / the engine (§III-D). */
bool
isBookkeeping(std::string_view name)
{
    return name == "equeue.launch" || name == "equeue.memcpy" ||
           name == "equeue.control_start" || name == "equeue.control_and" ||
           name == "equeue.control_or" || name == "equeue.await" ||
           name == "equeue.return" || name == "equeue.alloc" ||
           name == "equeue.dealloc" || name == "equeue.get_comp" ||
           name == "memref.alloc" || name == "memref.dealloc" ||
           name == "arith.constant" ||
           startsWith(name, "equeue.create_") ||
           name == "equeue.add_comp" || name == "builtin.module";
}

} // namespace

bool
CostModel::isScalarCore(const std::string &proc_kind)
{
    return startsWith(proc_kind, "ARM") || proc_kind == "Generic" ||
           proc_kind == "Root";
}

CostClass
CostModel::classify(const std::string &proc_kind)
{
    if (proc_kind == "Root")
        return CostClass::Root;
    if (isScalarCore(proc_kind))
        return CostClass::Scalar;
    if (proc_kind == "MAC")
        return CostClass::MAC;
    if (proc_kind == "AIEngine")
        return CostClass::AIEngine;
    if (proc_kind == "DMA")
        return CostClass::DMA;
    return CostClass::Other;
}

Cycles
CostModel::staticOpCycles(CostClass cls, std::string_view name)
{
    if (isBookkeeping(name))
        return 0;

    switch (cls) {
      case CostClass::Root:
        return 0;

      case CostClass::Scalar:
        // One issue slot per scalar op; loop back-edge costs a cycle.
        if (startsWith(name, "arith."))
            return 1;
        if (name == "affine.load" || name == "affine.store")
            return 1;
        if (name == "affine.yield")
            return 1;
        if (name == "affine.for" || name == "affine.parallel")
            return 0;
        if (name == "equeue.read" || name == "equeue.write")
            return 1;
        if (name == "equeue.stream_read" || name == "equeue.stream_write")
            return 1;
        if (name == "equeue.op")
            return 1;
        if (startsWith(name, "linalg."))
            return kDynamic;
        return 1;

      case CostClass::MAC:
        if (startsWith(name, "arith."))
            return 1;
        if (name == "equeue.op")
            return 1;
        // Reads, writes, loop control: part of the systolic datapath.
        return 0;

      case CostClass::AIEngine:
        if (name == "equeue.op")
            return 1;
        if (startsWith(name, "arith."))
            return 1;
        return 0;

      case CostClass::DMA:
        return 0;

      case CostClass::Other:
        // Unknown kinds behave like scalar cores.
        if (startsWith(name, "linalg."))
            return kDynamic;
        return 1;
    }
    return 1;
}

Cycles
CostModel::opCycles(const std::string &proc_kind, ir::Operation *op)
{
    Cycles c = staticOpCycles(classify(proc_kind), op->name());
    return c == kDynamic ? linalgCycles(op) : c;
}

Cycles
CostModel::linalgCycles(ir::Operation *op)
{
    if (ir::isa<linalg::ConvOp>(op)) {
        // Naive schedule: per MAC, compute addresses (2), fetch
        // ifmap+weight+ofmap (3), multiply, accumulate, write back,
        // plus loop control: 10 issue slots. Explicit affine loops beat
        // this slightly (Fig. 11b's Linalg->Affine runtime drop).
        return static_cast<Cycles>(linalg::convDims(op).macs()) * 10;
    }
    if (ir::isa<linalg::MatmulOp>(op)) {
        ir::Type a = op->operand(0).type();
        ir::Type b = op->operand(1).type();
        int64_t macs = a.shape()[0] * a.shape()[1] * b.shape()[1];
        return static_cast<Cycles>(macs) * 10;
    }
    if (ir::isa<linalg::FillOp>(op))
        return static_cast<Cycles>(op->operand(0).type().numElements());
    return 1;
}

// Defined here (not in component.hh) so component.hh need not depend on
// the cost model; the class is resolved once from the kind string and
// cached for the engine's per-op table lookups.
CostClass
Processor::costClass() const
{
    if (_costClassCache < 0)
        _costClassCache = static_cast<int8_t>(CostModel::classify(kind()));
    return static_cast<CostClass>(_costClassCache);
}

} // namespace sim
} // namespace eq
