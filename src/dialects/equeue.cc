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
    return b.create(opName, {b.context().procType()}, {}, attrs);
}

ir::Operation *
CreateDmaOp::build(ir::OpBuilder &b)
{
    return b.create(opName, {b.context().dmaType()}, {});
}

ir::Operation *
CreateMemOp::build(ir::OpBuilder &b, const std::string &kind,
                   ir::ArrayRef<int64_t> shape, unsigned data_bits,
                   unsigned banks)
{
    ir::AttrDict attrs;
    attrs.set("kind", ir::Attribute::string(kind));
    attrs.set("shape",
              ir::Attribute::i64Array({shape.begin(), shape.end()}));
    attrs.set("data_bits", ir::Attribute::integer(data_bits));
    attrs.set("banks", ir::Attribute::integer(banks));
    return b.create(opName, {b.context().memType()}, {}, attrs);
}

ir::Operation *
CreateStreamOp::build(ir::OpBuilder &b, unsigned data_bits)
{
    ir::AttrDict attrs;
    attrs.set("data_bits", ir::Attribute::integer(data_bits));
    return b.create(opName, {b.context().streamType()}, {}, attrs);
}

ir::Operation *
CreateCompOp::build(ir::OpBuilder &b, const std::string &names,
                    ir::ValueRange subcomps)
{
    ir::AttrDict attrs;
    attrs.set("names", ir::Attribute::string(names));
    return b.create(opName, {b.context().compType()}, subcomps, attrs);
}

ir::Operation *
AddCompOp::build(ir::OpBuilder &b, ir::Value comp, const std::string &names,
                 ir::ValueRange subcomps)
{
    ir::AttrDict attrs;
    attrs.set("names", ir::Attribute::string(names));
    ir::SmallVector<ir::Value, 8> operands;
    operands.push_back(comp);
    operands.append(subcomps);
    return b.create(opName, {}, operands, attrs);
}

ir::Operation *
ExtractCompOp::build(ir::OpBuilder &b, ir::Value comp,
                     const std::string &prefix,
                     ir::ArrayRef<int64_t> indices, ir::Type result_type)
{
    ir::AttrDict attrs;
    attrs.set("prefix", ir::Attribute::string(prefix));
    attrs.set("indices",
              ir::Attribute::i64Array({indices.begin(), indices.end()}));
    return b.create(opName, {result_type}, {comp}, attrs);
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
    return b.create(opName, {result_type}, {comp}, attrs);
}

ir::Operation *
CreateConnectionOp::build(ir::OpBuilder &b, const std::string &kind,
                          int64_t bandwidth_bytes_per_cycle)
{
    ir::AttrDict attrs;
    attrs.set("kind", ir::Attribute::string(kind));
    attrs.set("bandwidth",
              ir::Attribute::integer(bandwidth_bytes_per_cycle));
    return b.create(opName, {b.context().connectionType()}, {}, attrs);
}

// ---------------------------------------------------------------------------
// Data movement ops

ir::Operation *
AllocOp::build(ir::OpBuilder &b, ir::Value mem, ir::ArrayRef<int64_t> shape,
               unsigned elem_bits)
{
    ir::Type bt = b.context().bufferType(shape, elem_bits);
    return b.create(opName, {bt}, {mem});
}

ir::Operation *
DeallocOp::build(ir::OpBuilder &b, ir::Value buffer)
{
    return b.create(opName, {}, {buffer});
}

ir::Operation *
ReadOp::build(ir::OpBuilder &b, ir::Value buffer, ir::Value conn,
              ir::ValueRange indices)
{
    ir::Type bt = buffer.type();
    ir::Type result = indices.empty()
                          ? b.context().tensorType(bt.shape(),
                                                   bt.elemBits())
                          : b.context().intType(bt.elemBits());
    ir::AttrDict attrs;
    auto operands =
        ir::layOutOperands(opSignature, {{buffer}, {conn}, indices}, attrs);
    return b.create(opName, {result}, operands, attrs);
}

ir::Operation *
WriteOp::build(ir::OpBuilder &b, ir::Value value, ir::Value buffer,
               ir::Value conn, ir::ValueRange indices)
{
    ir::AttrDict attrs;
    auto operands = ir::layOutOperands(
        opSignature, {{value}, {buffer}, {conn}, indices}, attrs);
    return b.create(opName, {}, operands, attrs);
}

ir::Operation *
StreamReadOp::build(ir::OpBuilder &b, ir::Value stream, int64_t elems,
                    unsigned elem_bits, ir::Value conn)
{
    ir::Type result = b.context().tensorType({elems}, elem_bits);
    ir::AttrDict attrs;
    attrs.set("elems", ir::Attribute::integer(elems));
    auto operands = ir::layOutOperands(opSignature, {{stream}, {conn}}, attrs);
    return b.create(opName, {result}, operands, attrs);
}

ir::Operation *
StreamWriteOp::build(ir::OpBuilder &b, ir::Value value, ir::Value stream,
                     ir::Value conn)
{
    ir::AttrDict attrs;
    auto operands =
        ir::layOutOperands(opSignature, {{value}, {stream}, {conn}}, attrs);
    return b.create(opName, {}, operands, attrs);
}

// ---------------------------------------------------------------------------
// Control ops

ir::Operation *
ControlStartOp::build(ir::OpBuilder &b)
{
    return b.create(opName, {b.context().eventType()}, {});
}

ir::Operation *
ControlAndOp::build(ir::OpBuilder &b, ir::ValueRange events)
{
    return b.create(opName, {b.context().eventType()}, events);
}

ir::Operation *
ControlOrOp::build(ir::OpBuilder &b, ir::ValueRange events)
{
    return b.create(opName, {b.context().eventType()}, events);
}

ir::Operation *
LaunchOp::build(ir::OpBuilder &b, ir::ValueRange deps,
                ir::Value proc, ir::ValueRange captured,
                ir::TypeRange return_types)
{
    eq_assert(!deps.empty(), "launch requires at least one dependency");
    ir::SmallVector<ir::Type, 4> results;
    results.push_back(b.context().eventType());
    results.append(return_types);
    ir::AttrDict attrs;
    auto operands =
        ir::layOutOperands(opSignature, {deps, {proc}, captured}, attrs);
    ir::Operation *op = b.create(opName, results, operands,
                                 attrs, /*num_regions=*/1);
    ir::Block &body = op->region(0).ensureBlock();
    for (ir::Value v : captured)
        body.addArgument(v.type());
    return op;
}

ir::Operation *
MemcpyOp::build(ir::OpBuilder &b, ir::Value dep, ir::Value src,
                ir::Value dst, ir::Value dma, ir::Value conn)
{
    ir::AttrDict attrs;
    auto operands = ir::layOutOperands(
        opSignature, {{dep}, {src}, {dst}, {dma}, {conn}}, attrs);
    return b.create(opName, {b.context().eventType()}, operands, attrs);
}

ir::Operation *
AwaitOp::build(ir::OpBuilder &b, ir::ValueRange events)
{
    return b.create(opName, {}, events);
}

ir::Operation *
ReturnOp::build(ir::OpBuilder &b, ir::ValueRange values)
{
    return b.create(opName, {}, values);
}

ir::Operation *
ExternOp::build(ir::OpBuilder &b, const std::string &signature,
                ir::ValueRange args,
                ir::TypeRange result_types)
{
    ir::AttrDict attrs;
    attrs.set("signature", ir::Attribute::string(signature));
    return b.create(opName, result_types, args, attrs);
}

// ---------------------------------------------------------------------------
// Semantic checks (the signatures cover arity, types and attributes)

namespace {

/** The number of names in @p op's `names`, split as the engine splits
 *  them (runs of spaces separate). */
size_t
countNames(ir::Operation *op)
{
    const std::string &s = op->strAttr("names");
    size_t n = 0;
    for (size_t i = 0; i < s.size(); ++i)
        n += s[i] != ' ' && (i == 0 || s[i - 1] == ' ');
    return n;
}

std::string
verifyCreateComp(ir::Operation *op, const ir::OperandGroups &)
{
    if (countNames(op) != op->numOperands())
        return "'names' count must match subcomponent count";
    return "";
}

std::string
verifyAddComp(ir::Operation *op, const ir::OperandGroups &)
{
    if (countNames(op) != op->numOperands() - 1)
        return "'names' count must match subcomponent count";
    return "";
}

std::string
verifyCreateMem(ir::Operation *op, const ir::OperandGroups &)
{
    if (op->intAttr("banks") < 1)
        return "banks must be >= 1";
    return "";
}

std::string
verifyCreateConnection(ir::Operation *op, const ir::OperandGroups &)
{
    const std::string &kind = op->strAttr("kind");
    if (kind != "Streaming" && kind != "Window")
        return "kind must be Streaming or Window";
    if (op->intAttr("bandwidth") < 0)
        return "bandwidth must be >= 0 (0 = unlimited)";
    return "";
}

/** An indexed access names one element: as many indices as the
 *  buffer's rank (none reads or writes the whole buffer). */
std::string
checkIndexCount(ir::Value buffer, ir::GroupBounds indices)
{
    size_t n = indices.size();
    if (n != 0 && n != buffer.type().shape().size())
        return "index count must be 0 or the buffer rank";
    return "";
}

std::string
verifyRead(ir::Operation *op, const ir::OperandGroups &groups)
{
    return checkIndexCount(ReadOp(op).buffer(), groups[2]);
}

std::string
verifyWrite(ir::Operation *op, const ir::OperandGroups &groups)
{
    return checkIndexCount(WriteOp(op).buffer(), groups[3]);
}

std::string
verifyStreamRead(ir::Operation *op, const ir::OperandGroups &)
{
    if (op->intAttr("elems") < 0)
        return "elems must be >= 0";
    return "";
}

std::string
verifyLaunch(ir::Operation *op, const ir::OperandGroups &groups)
{
    if (LaunchOp(op).body().numArguments() != groups[2].size())
        return "body block arg count must equal captured value count";
    return "";
}

} // namespace

void
registerDialect(ir::Context &ctx)
{
    ctx.registerOp<CreateProcOp>();
    ctx.registerOp<CreateDmaOp>();
    ctx.registerOp<CreateMemOp>(verifyCreateMem);
    ctx.registerOp<CreateStreamOp>();
    ctx.registerOp<CreateCompOp>(verifyCreateComp);
    ctx.registerOp<AddCompOp>(verifyAddComp);
    ctx.registerOp<GetCompOp>();
    ctx.registerOp<ExtractCompOp>();
    ctx.registerOp<CreateConnectionOp>(verifyCreateConnection);
    ctx.registerOp<AllocOp>();
    ctx.registerOp<DeallocOp>();
    ctx.registerOp<ReadOp>(verifyRead);
    ctx.registerOp<WriteOp>(verifyWrite);
    ctx.registerOp<StreamReadOp>(verifyStreamRead);
    ctx.registerOp<StreamWriteOp>();
    ctx.registerOp<ControlStartOp>();
    ctx.registerOp<ControlAndOp>();
    ctx.registerOp<ControlOrOp>();
    ctx.registerOp<LaunchOp>(verifyLaunch);
    ctx.registerOp<MemcpyOp>();
    ctx.registerOp<AwaitOp>();
    ctx.registerOp<ReturnOp>();
    ctx.registerOp<ExternOp>();
}

} // namespace equeue
} // namespace eq
