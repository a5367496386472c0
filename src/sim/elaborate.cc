/**
 * @file
 * Elaboration of the modeled hardware hierarchy (processors, memories,
 * DMAs, connections, streams, composite components) and buffer
 * allocation. These run at zero cost — they describe hardware, they do
 * not execute on it (§III-A).
 *
 * The op semantics live in Simulator::Impl::elab* cores shared by both
 * execution backends; the BlockExec handlers below are the
 * interpreter's thin wrappers (the compiled backend calls the cores
 * from its own dispatch loop in compiled_exec.cc).
 */

#include "base/stringutil.hh"
#include "dialects/equeue.hh"
#include "dialects/memref.hh"
#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

// ---------------------------------------------------------------------------
// Shared elaboration cores

SimValue
Simulator::Impl::elabCreateProc(ir::Operation *op)
{
    auto proc = std::make_unique<Processor>(
        freshName(LabelKind::Proc), equeue::CreateProcOp(op).kind());
    SimValue v = SimValue::ofComponent(proc.get());
    components.push_back(std::move(proc));
    return v;
}

SimValue
Simulator::Impl::elabCreateDma()
{
    auto dma = std::make_unique<Dma>(freshName(LabelKind::Dma));
    SimValue v = SimValue::ofComponent(dma.get());
    components.push_back(std::move(dma));
    return v;
}

SimValue
Simulator::Impl::elabCreateMem(ir::Operation *op)
{
    equeue::CreateMemOp mem_op(op);
    // A user's memory may keep state its timing capture does not see.
    if (!factory.isBuiltinKind(mem_op.kind()))
        ffEnabled = false;
    auto mem =
        factory.makeMemory(mem_op.kind(), freshName(LabelKind::Mem),
                           mem_op.shape(), mem_op.dataBits(),
                           mem_op.banks());
    SimValue v = SimValue::ofComponent(mem.get());
    components.push_back(std::move(mem));
    return v;
}

SimValue
Simulator::Impl::elabCreateStream(ir::Operation *op)
{
    auto fifo = std::make_unique<StreamFifo>(
        freshName(LabelKind::Stream),
        static_cast<unsigned>(op->intAttrOr("data_bits", 32)));
    SimValue v = SimValue::ofStream(fifo.get());
    components.push_back(std::move(fifo));
    return v;
}

SimValue
Simulator::Impl::elabCreateConnection(ir::Operation *op)
{
    equeue::CreateConnectionOp conn_op(op);
    auto conn = std::make_unique<Connection>(
        freshName(LabelKind::Conn), conn_op.kind(), conn_op.bandwidth());
    SimValue v = SimValue::ofConnection(conn.get());
    components.push_back(std::move(conn));
    return v;
}

SimValue
Simulator::Impl::elabCreateOrAddComp(const SimValue *args, size_t nargs,
                                     bool is_add,
                                     const std::string *names)
{
    Component *comp;
    size_t first_sub = 0;
    if (is_add) {
        comp = args[0].asComponent();
        first_sub = 1;
    } else {
        auto owned = std::make_unique<Component>(freshName(LabelKind::Comp));
        comp = owned.get();
        components.push_back(std::move(owned));
    }
    for (size_t i = first_sub; i < nargs; ++i) {
        const SimValue &sub = args[i];
        Component *child = sub.isStream()
                               ? static_cast<Component *>(sub.asStream())
                               : sub.asComponent();
        comp->addChild(names[i - first_sub], child);
    }
    return is_add ? SimValue() : SimValue::ofComponent(comp);
}

SimValue
Simulator::Impl::elabGetComp(Component *comp,
                             const std::string &child_name)
{
    Component *child = comp->child(child_name);
    if (!child)
        simulationFailed(detail::formatMessage(
            "get_comp: no subcomponent named '", child_name, "' in ",
            comp->path()));
    return SimValue::ofComponent(child);
}

SimValue
Simulator::Impl::elabAlloc(ir::Operation *op, Memory *mem)
{
    ir::Type bt = op->result(0).type();
    const std::vector<int64_t> &shape = bt.shape();
    if (numBuffers == buffers.size())
        buffers.push_back(std::make_unique<BufferObj>());
    BufferObj *buf = buffers[numBuffers++].get();
    // Reuse the previous run's buffer at this position when it has the
    // same shape and width and no one else holds its tensor; it starts
    // zeroed like a fresh one.
    TensorPtr &t = buf->data;
    if (t.unique() && t->shape == shape && t->elemBits == bt.elemBits())
        std::fill(t->data.begin(), t->data.end(), 0);
    else
        t = Tensor::zeros(shape, bt.elemBits());
    buf->mem = mem;
    buf->label = freshName(LabelKind::Buf);
    return SimValue::ofBuffer(buf);
}

// ---------------------------------------------------------------------------
// Interpreter wrappers

BlockExec::Step
BlockExec::execCreateProc(ir::Operation *op, Cycles &now)
{
    (void)now;
    bind(op->result(0), _eng.elabCreateProc(op));
    return advanceFree();
}

BlockExec::Step
BlockExec::execCreateDma(ir::Operation *op, Cycles &now)
{
    (void)now;
    bind(op->result(0), _eng.elabCreateDma());
    return advanceFree();
}

BlockExec::Step
BlockExec::execCreateMem(ir::Operation *op, Cycles &now)
{
    (void)now;
    bind(op->result(0), _eng.elabCreateMem(op));
    return advanceFree();
}

BlockExec::Step
BlockExec::execCreateStream(ir::Operation *op, Cycles &now)
{
    (void)now;
    bind(op->result(0), _eng.elabCreateStream(op));
    return advanceFree();
}

BlockExec::Step
BlockExec::execCreateConnection(ir::Operation *op, Cycles &now)
{
    (void)now;
    bind(op->result(0), _eng.elabCreateConnection(op));
    return advanceFree();
}

BlockExec::Step
BlockExec::execCreateOrAddComp(ir::Operation *op, Cycles &now)
{
    (void)now;
    bool is_add = op->opId() == _eng.idAddComp;
    std::vector<SimValue> args;
    args.reserve(op->numOperands());
    for (unsigned i = 0; i < op->numOperands(); ++i)
        args.push_back(eval(op->operand(i)));
    std::vector<std::string> names = split(op->strAttr("names"), ' ');
    SimValue r = _eng.elabCreateOrAddComp(args.data(), args.size(), is_add,
                                          names.data());
    if (!is_add)
        bind(op->result(0), r);
    return advanceFree();
}

BlockExec::Step
BlockExec::execGetComp(ir::Operation *op, Cycles &now)
{
    (void)now;
    Component *comp = eval(op->operand(0)).asComponent();
    std::string child_name =
        op->opId() == _eng.idExtractComp
            ? equeue::ExtractCompOp(op).resolvedName()
            : op->strAttr("name");
    bind(op->result(0), _eng.elabGetComp(comp, child_name));
    return advanceFree();
}

BlockExec::Step
BlockExec::execAlloc(ir::Operation *op, Cycles &now)
{
    (void)now;
    Memory *mem =
        op->opId() == _eng.idEqueueAlloc
            ? static_cast<Memory *>(eval(op->operand(0)).asComponent())
            : nullptr;
    bind(op->result(0), _eng.elabAlloc(op, mem));
    return advanceFree();
}

BlockExec::Step
BlockExec::execDealloc(ir::Operation *op, Cycles &now)
{
    (void)op;
    (void)now;
    return advanceFree();
}

} // namespace sim
} // namespace eq
