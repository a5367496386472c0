#include "dialects/equeue.hh"

#include "base/logging.hh"

namespace eq {
namespace equeue {

// ---------------------------------------------------------------------------
// Structure ops

ir::Operation *
CreateProcOp::build(ir::OpBuilder &b, const std::string &kind)
{
    ir::AttrDict attrs;
    attrs.set("kind", ir::Attribute::string(kind));
    return b.create(opName, {b.context().procType()}, {}, std::move(attrs));
}

ir::Operation *
CreateDmaOp::build(ir::OpBuilder &b)
{
    return b.create(opName, {b.context().dmaType()}, {});
}

ir::Operation *
CreateMemOp::build(ir::OpBuilder &b, const std::string &kind,
                   std::vector<int64_t> shape, unsigned data_bits,
                   unsigned banks)
{
    ir::AttrDict attrs;
    attrs.set("kind", ir::Attribute::string(kind));
    attrs.set("shape", ir::Attribute::i64Array(std::move(shape)));
    attrs.set("data_bits", ir::Attribute::integer(data_bits));
    attrs.set("banks", ir::Attribute::integer(banks));
    return b.create(opName, {b.context().memType()}, {}, std::move(attrs));
}

ir::Operation *
CreateStreamOp::build(ir::OpBuilder &b, unsigned data_bits)
{
    ir::AttrDict attrs;
    attrs.set("data_bits", ir::Attribute::integer(data_bits));
    return b.create(opName, {b.context().streamType()}, {},
                    std::move(attrs));
}

ir::Operation *
CreateCompOp::build(ir::OpBuilder &b, const std::string &names,
                    std::vector<ir::Value> subcomps)
{
    ir::AttrDict attrs;
    attrs.set("names", ir::Attribute::string(names));
    return b.create(opName, {b.context().compType()}, std::move(subcomps),
                    std::move(attrs));
}

ir::Operation *
AddCompOp::build(ir::OpBuilder &b, ir::Value comp, const std::string &names,
                 std::vector<ir::Value> subcomps)
{
    ir::AttrDict attrs;
    attrs.set("names", ir::Attribute::string(names));
    std::vector<ir::Value> operands{comp};
    operands.insert(operands.end(), subcomps.begin(), subcomps.end());
    return b.create(opName, {}, std::move(operands), std::move(attrs));
}

ir::Operation *
ExtractCompOp::build(ir::OpBuilder &b, ir::Value comp,
                     const std::string &prefix,
                     std::vector<int64_t> indices, ir::Type result_type)
{
    ir::AttrDict attrs;
    attrs.set("prefix", ir::Attribute::string(prefix));
    attrs.set("indices", ir::Attribute::i64Array(std::move(indices)));
    return b.create(opName, {result_type}, {comp}, std::move(attrs));
}

std::string
ExtractCompOp::resolvedName() const
{
    std::string name = _op->strAttr("prefix");
    const auto &idx = _op->attr("indices").asI64Array();
    for (size_t i = 0; i < idx.size(); ++i) {
        if (i)
            name += "_";
        name += std::to_string(idx[i]);
    }
    return name;
}

ir::Operation *
GetCompOp::build(ir::OpBuilder &b, ir::Value comp, const std::string &name,
                 ir::Type result_type)
{
    ir::AttrDict attrs;
    attrs.set("name", ir::Attribute::string(name));
    return b.create(opName, {result_type}, {comp}, std::move(attrs));
}

ir::Operation *
CreateConnectionOp::build(ir::OpBuilder &b, const std::string &kind,
                          int64_t bandwidth_bytes_per_cycle)
{
    ir::AttrDict attrs;
    attrs.set("kind", ir::Attribute::string(kind));
    attrs.set("bandwidth",
              ir::Attribute::integer(bandwidth_bytes_per_cycle));
    return b.create(opName, {b.context().connectionType()}, {},
                    std::move(attrs));
}

// ---------------------------------------------------------------------------
// Data movement ops

ir::Operation *
AllocOp::build(ir::OpBuilder &b, ir::Value mem, std::vector<int64_t> shape,
               unsigned elem_bits)
{
    ir::Type bt = b.context().bufferType(std::move(shape), elem_bits);
    return b.create(opName, {bt}, {mem});
}

ir::Operation *
DeallocOp::build(ir::OpBuilder &b, ir::Value buffer)
{
    return b.create(opName, {}, {buffer});
}

ir::Operation *
ReadOp::build(ir::OpBuilder &b, ir::Value buffer, ir::Value conn,
              std::vector<ir::Value> indices)
{
    ir::Type bt = buffer.type();
    ir::Type result = indices.empty()
                          ? b.context().tensorType(bt.shape(),
                                                   bt.elemBits())
                          : b.context().intType(bt.elemBits());
    std::vector<ir::Value> operands{buffer};
    ir::AttrDict attrs;
    if (conn) {
        operands.push_back(conn);
        attrs.set("has_conn", ir::Attribute::integer(1));
    }
    attrs.set("num_indices",
              ir::Attribute::integer(static_cast<int64_t>(indices.size())));
    operands.insert(operands.end(), indices.begin(), indices.end());
    return b.create(opName, {result}, std::move(operands),
                    std::move(attrs));
}

std::vector<ir::Value>
ReadOp::indices() const
{
    unsigned start = 1 + (hasConn() ? 1 : 0);
    auto ops = _op->operands();
    return {ops.begin() + start, ops.end()};
}

ir::Operation *
WriteOp::build(ir::OpBuilder &b, ir::Value value, ir::Value buffer,
               ir::Value conn, std::vector<ir::Value> indices)
{
    std::vector<ir::Value> operands{value, buffer};
    ir::AttrDict attrs;
    if (conn) {
        operands.push_back(conn);
        attrs.set("has_conn", ir::Attribute::integer(1));
    }
    attrs.set("num_indices",
              ir::Attribute::integer(static_cast<int64_t>(indices.size())));
    operands.insert(operands.end(), indices.begin(), indices.end());
    return b.create(opName, {}, std::move(operands), std::move(attrs));
}

std::vector<ir::Value>
WriteOp::indices() const
{
    unsigned start = 2 + (hasConn() ? 1 : 0);
    auto ops = _op->operands();
    return {ops.begin() + start, ops.end()};
}

ir::Operation *
StreamReadOp::build(ir::OpBuilder &b, ir::Value stream, int64_t elems,
                    unsigned elem_bits, ir::Value conn)
{
    ir::Type result = b.context().tensorType({elems}, elem_bits);
    std::vector<ir::Value> operands{stream};
    ir::AttrDict attrs;
    attrs.set("elems", ir::Attribute::integer(elems));
    if (conn) {
        operands.push_back(conn);
        attrs.set("has_conn", ir::Attribute::integer(1));
    }
    return b.create(opName, {result}, std::move(operands),
                    std::move(attrs));
}

ir::Operation *
StreamWriteOp::build(ir::OpBuilder &b, ir::Value value, ir::Value stream,
                     ir::Value conn)
{
    std::vector<ir::Value> operands{value, stream};
    ir::AttrDict attrs;
    if (conn) {
        operands.push_back(conn);
        attrs.set("has_conn", ir::Attribute::integer(1));
    }
    return b.create(opName, {}, std::move(operands), std::move(attrs));
}

// ---------------------------------------------------------------------------
// Control ops

ir::Operation *
ControlStartOp::build(ir::OpBuilder &b)
{
    return b.create(opName, {b.context().eventType()}, {});
}

ir::Operation *
ControlAndOp::build(ir::OpBuilder &b, std::vector<ir::Value> events)
{
    return b.create(opName, {b.context().eventType()}, std::move(events));
}

ir::Operation *
ControlOrOp::build(ir::OpBuilder &b, std::vector<ir::Value> events)
{
    return b.create(opName, {b.context().eventType()}, std::move(events));
}

ir::Operation *
LaunchOp::build(ir::OpBuilder &b, std::vector<ir::Value> deps,
                ir::Value proc, std::vector<ir::Value> captured,
                std::vector<ir::Type> return_types)
{
    eq_assert(!deps.empty(), "launch requires at least one dependency");
    std::vector<ir::Value> operands(deps.begin(), deps.end());
    operands.push_back(proc);
    operands.insert(operands.end(), captured.begin(), captured.end());

    std::vector<ir::Type> results{b.context().eventType()};
    results.insert(results.end(), return_types.begin(), return_types.end());

    ir::AttrDict attrs;
    attrs.set("num_deps",
              ir::Attribute::integer(static_cast<int64_t>(deps.size())));

    ir::Operation *op = b.create(opName, std::move(results),
                                 std::move(operands), std::move(attrs),
                                 /*num_regions=*/1);
    ir::Block &body = op->region(0).ensureBlock();
    for (ir::Value v : captured)
        body.addArgument(v.type());
    return op;
}

std::vector<ir::Value>
LaunchOp::deps() const
{
    auto ops = _op->operands();
    return {ops.begin(), ops.begin() + numDeps()};
}

std::vector<ir::Value>
LaunchOp::captured() const
{
    auto ops = _op->operands();
    return {ops.begin() + numDeps() + 1, ops.end()};
}

ir::Operation *
MemcpyOp::build(ir::OpBuilder &b, ir::Value dep, ir::Value src,
                ir::Value dst, ir::Value dma, ir::Value conn)
{
    std::vector<ir::Value> operands{dep, src, dst, dma};
    ir::AttrDict attrs;
    if (conn) {
        operands.push_back(conn);
        attrs.set("has_conn", ir::Attribute::integer(1));
    }
    return b.create(opName, {b.context().eventType()}, std::move(operands),
                    std::move(attrs));
}

ir::Operation *
AwaitOp::build(ir::OpBuilder &b, std::vector<ir::Value> events)
{
    return b.create(opName, {}, std::move(events));
}

ir::Operation *
ReturnOp::build(ir::OpBuilder &b, std::vector<ir::Value> values)
{
    return b.create(opName, {}, std::move(values));
}

ir::Operation *
ExternOp::build(ir::OpBuilder &b, const std::string &signature,
                std::vector<ir::Value> args,
                std::vector<ir::Type> result_types)
{
    ir::AttrDict attrs;
    attrs.set("signature", ir::Attribute::string(signature));
    return b.create(opName, std::move(result_types), std::move(args),
                    std::move(attrs));
}

// ---------------------------------------------------------------------------
// Verifiers

namespace {

std::string
verifyCreateProc(ir::Operation *op)
{
    if (!op->attr("kind"))
        return "requires a 'kind' attribute";
    if (op->numResults() != 1 ||
        op->result(0).type().kind() != ir::TypeKind::Proc)
        return "must return a !equeue.proc";
    return "";
}

std::string
verifyCreateMem(ir::Operation *op)
{
    if (!op->attr("kind") || !op->attr("shape") || !op->attr("data_bits"))
        return "requires kind/shape/data_bits attributes";
    if (op->intAttrOr("banks", 1) < 1)
        return "banks must be >= 1";
    return "";
}

std::string
verifyCreateComp(ir::Operation *op)
{
    if (!op->attr("names"))
        return "requires a 'names' attribute";
    size_t names = 0;
    {
        const std::string &s = op->strAttr("names");
        bool in_word = false;
        for (char c : s) {
            if (c == ' ') {
                in_word = false;
            } else if (!in_word) {
                in_word = true;
                ++names;
            }
        }
    }
    if (names != op->numOperands())
        return "'names' count must match subcomponent count";
    for (ir::Value v : op->operands())
        if (!v.type().isComponent() &&
            v.type().kind() != ir::TypeKind::Stream)
            return "subcomponents must be components";
    return "";
}

std::string
verifyAddComp(ir::Operation *op)
{
    if (op->numOperands() < 1 ||
        op->operand(0).type().kind() != ir::TypeKind::Comp)
        return "first operand must be a !equeue.comp";
    return "";
}

std::string
verifyGetComp(ir::Operation *op)
{
    if (!op->attr("name"))
        return "requires a 'name' attribute";
    if (op->numOperands() != 1 ||
        op->operand(0).type().kind() != ir::TypeKind::Comp)
        return "operand must be a !equeue.comp";
    return "";
}

std::string
verifyCreateConnection(ir::Operation *op)
{
    if (!op->attr("kind") || !op->attr("bandwidth"))
        return "requires kind/bandwidth attributes";
    const std::string &kind = op->strAttr("kind");
    if (kind != "Streaming" && kind != "Window")
        return "kind must be Streaming or Window";
    if (op->intAttr("bandwidth") < 0)
        return "bandwidth must be >= 0 (0 = unlimited)";
    return "";
}

std::string
verifyAlloc(ir::Operation *op)
{
    if (op->numOperands() != 1 ||
        op->operand(0).type().kind() != ir::TypeKind::Mem)
        return "operand must be a !equeue.mem";
    if (op->numResults() != 1 || !op->result(0).type().isBuffer())
        return "must return a !equeue.buffer";
    return "";
}

std::string
verifyRead(ir::Operation *op)
{
    if (op->numOperands() < 1)
        return "expects a buffer operand";
    ir::Type bt = op->operand(0).type();
    if (!bt.isBuffer())
        return "first operand must be a buffer";
    bool has_conn = op->intAttrOr("has_conn", 0) != 0;
    if (has_conn &&
        (op->numOperands() < 2 ||
         op->operand(1).type().kind() != ir::TypeKind::Connection))
        return "has_conn set but operand 1 is not a connection";
    int64_t num_indices = op->intAttrOr("num_indices", 0);
    unsigned expected = 1 + (has_conn ? 1 : 0) +
                        static_cast<unsigned>(num_indices);
    if (op->numOperands() != expected)
        return "operand count inconsistent with has_conn/num_indices";
    if (num_indices != 0 &&
        num_indices != static_cast<int64_t>(bt.shape().size()))
        return "index count must be 0 or the buffer rank";
    return "";
}

std::string
verifyWrite(ir::Operation *op)
{
    if (op->numOperands() < 2)
        return "expects value and buffer operands";
    ir::Type bt = op->operand(1).type();
    if (!bt.isBuffer())
        return "second operand must be a buffer";
    bool has_conn = op->intAttrOr("has_conn", 0) != 0;
    if (has_conn &&
        (op->numOperands() < 3 ||
         op->operand(2).type().kind() != ir::TypeKind::Connection))
        return "has_conn set but operand 2 is not a connection";
    int64_t num_indices = op->intAttrOr("num_indices", 0);
    unsigned expected = 2 + (has_conn ? 1 : 0) +
                        static_cast<unsigned>(num_indices);
    if (op->numOperands() != expected)
        return "operand count inconsistent with has_conn/num_indices";
    return "";
}

/** The engine reads the stream operand and the `elems` count of every
 *  stream_read unconditionally. */
std::string
verifyStreamRead(ir::Operation *op)
{
    if (op->numOperands() < 1 ||
        op->operand(0).type().kind() != ir::TypeKind::Stream)
        return "first operand must be a !equeue.stream";
    ir::Attribute elems = op->attr("elems");
    if (!elems.isInt())
        return "requires an integer 'elems' attribute";
    if (elems.asInt() < 0)
        return "elems must be >= 0";
    bool has_conn = op->intAttrOr("has_conn", 0) != 0;
    if (op->numOperands() != (has_conn ? 2u : 1u))
        return "operand count inconsistent with has_conn";
    if (has_conn &&
        op->operand(1).type().kind() != ir::TypeKind::Connection)
        return "has_conn set but operand 1 is not a connection";
    return "";
}

std::string
verifyLaunch(ir::Operation *op)
{
    int64_t num_deps = op->intAttrOr("num_deps", 1);
    if (num_deps < 1)
        return "requires at least one dependency";
    if (static_cast<int64_t>(op->numOperands()) < num_deps + 1)
        return "too few operands for num_deps";
    for (int64_t i = 0; i < num_deps; ++i)
        if (!op->operand(static_cast<unsigned>(i)).type().isEvent())
            return "dependencies must be events";
    ir::Type pt = op->operand(static_cast<unsigned>(num_deps)).type();
    if (pt.kind() != ir::TypeKind::Proc && pt.kind() != ir::TypeKind::Dma)
        return "launch target must be a processor or DMA";
    if (op->numResults() < 1 || !op->result(0).type().isEvent())
        return "first result must be the done event";
    if (op->numRegions() != 1 || op->region(0).empty())
        return "requires a body region";
    size_t captured = op->numOperands() - num_deps - 1;
    if (op->region(0).front().numArguments() != captured)
        return "body block arg count must equal captured value count";
    return "";
}

std::string
verifyMemcpy(ir::Operation *op)
{
    bool has_conn = op->intAttrOr("has_conn", 0) != 0;
    unsigned expected = 4 + (has_conn ? 1 : 0);
    if (op->numOperands() != expected)
        return "expects dep, src, dst, dma (, conn) operands";
    if (!op->operand(0).type().isEvent())
        return "dep must be an event";
    if (!op->operand(1).type().isBuffer() ||
        !op->operand(2).type().isBuffer())
        return "src/dst must be buffers";
    ir::TypeKind dk = op->operand(3).type().kind();
    if (dk != ir::TypeKind::Dma && dk != ir::TypeKind::Proc)
        return "memcpy executor must be a DMA (or processor)";
    if (op->numResults() != 1 || !op->result(0).type().isEvent())
        return "must return the done event";
    return "";
}

std::string
verifyEvents(ir::Operation *op)
{
    for (ir::Value v : op->operands())
        if (!v.type().isEvent())
            return "operands must be events";
    return "";
}

/** control_and/control_or: a join over no events would never complete
 *  (or) or complete before anything happened (and). */
std::string
verifyJoin(ir::Operation *op)
{
    if (op->numOperands() == 0)
        return "requires at least one event operand";
    return verifyEvents(op);
}

std::string
verifyExternOp(ir::Operation *op)
{
    if (!op->attr("signature"))
        return "requires a 'signature' attribute";
    return "";
}

} // namespace

void
registerDialect(ir::Context &ctx)
{
    ctx.registerOp({CreateProcOp::opName, verifyCreateProc, false});
    ctx.registerOp({CreateDmaOp::opName, nullptr, false});
    ctx.registerOp({CreateMemOp::opName, verifyCreateMem, false});
    ctx.registerOp({CreateStreamOp::opName, nullptr, false});
    ctx.registerOp({CreateCompOp::opName, verifyCreateComp, false});
    ctx.registerOp({AddCompOp::opName, verifyAddComp, false});
    ctx.registerOp({GetCompOp::opName, verifyGetComp, false});
    ctx.registerOp({ExtractCompOp::opName, nullptr, false});
    ctx.registerOp(
        {CreateConnectionOp::opName, verifyCreateConnection, false});
    ctx.registerOp({AllocOp::opName, verifyAlloc, false});
    ctx.registerOp({DeallocOp::opName, nullptr, false});
    ctx.registerOp({ReadOp::opName, verifyRead, false});
    ctx.registerOp({WriteOp::opName, verifyWrite, false});
    ctx.registerOp({StreamReadOp::opName, verifyStreamRead, false});
    ctx.registerOp({StreamWriteOp::opName, nullptr, false});
    ctx.registerOp({ControlStartOp::opName, nullptr, false});
    ctx.registerOp({ControlAndOp::opName, verifyJoin, false});
    ctx.registerOp({ControlOrOp::opName, verifyJoin, false});
    ctx.registerOp({LaunchOp::opName, verifyLaunch, false});
    ctx.registerOp({MemcpyOp::opName, verifyMemcpy, false});
    ctx.registerOp({AwaitOp::opName, verifyEvents, false});
    ctx.registerOp({ReturnOp::opName, nullptr, true});
    ctx.registerOp({ExternOp::opName, verifyExternOp, false});
}

} // namespace equeue
} // namespace eq
