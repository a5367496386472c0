#include "dialects/affine.hh"

namespace eq {
namespace affine {

ir::Operation *
ForOp::build(ir::OpBuilder &b, int64_t lb, int64_t ub, int64_t step)
{
    ir::AttrDict attrs;
    attrs.set("lb", ir::Attribute::integer(lb));
    attrs.set("ub", ir::Attribute::integer(ub));
    attrs.set("step", ir::Attribute::integer(step));
    ir::Operation *op =
        b.create(opName, {}, {}, attrs, /*num_regions=*/1);
    ir::Block &body = op->region(0).ensureBlock();
    body.addArgument(b.context().indexType());
    return op;
}

ir::Operation *
ParallelOp::build(ir::OpBuilder &b, std::vector<int64_t> lbs,
                  std::vector<int64_t> ubs, std::vector<int64_t> steps)
{
    if (steps.empty())
        steps.assign(lbs.size(), 1);
    ir::AttrDict attrs;
    attrs.set("lbs", ir::Attribute::i64Array(lbs));
    attrs.set("ubs", ir::Attribute::i64Array(ubs));
    attrs.set("steps", ir::Attribute::i64Array(steps));
    ir::Operation *op =
        b.create(opName, {}, {}, attrs, /*num_regions=*/1);
    ir::Block &body = op->region(0).ensureBlock();
    for (size_t i = 0; i < lbs.size(); ++i)
        body.addArgument(b.context().indexType());
    return op;
}

ir::Operation *
LoadOp::build(ir::OpBuilder &b, ir::Value memref, ir::ValueRange indices)
{
    ir::Type elem = b.context().intType(memref.type().elemBits());
    ir::SmallVector<ir::Value, 8> operands;
    operands.push_back(memref);
    operands.append(indices);
    return b.create(opName, {elem}, operands);
}

ir::Operation *
StoreOp::build(ir::OpBuilder &b, ir::Value value, ir::Value memref,
               ir::ValueRange indices)
{
    ir::SmallVector<ir::Value, 8> operands;
    operands.push_back(value);
    operands.push_back(memref);
    operands.append(indices);
    return b.create(opName, {}, operands);
}

ir::Operation *
YieldOp::build(ir::OpBuilder &b, ir::ValueRange values)
{
    return b.create(opName, {}, values);
}

namespace {

std::string
verifyFor(ir::Operation *op, const ir::OperandGroups &)
{
    if (op->region(0).front().numArguments() != 1)
        return "body must have exactly one induction variable";
    return "";
}

std::string
verifyParallel(ir::Operation *op, const ir::OperandGroups &)
{
    size_t rank = op->attr("lbs").asI64Array().size();
    if (op->attr("ubs").asI64Array().size() != rank ||
        op->attr("steps").asI64Array().size() != rank)
        return "lbs/ubs/steps rank mismatch";
    if (op->region(0).front().numArguments() != rank)
        return "induction variable count mismatch";
    return "";
}

/** One index per dimension of the accessed memref. */
std::string
checkIndexCount(ir::Value memref, ir::GroupBounds indices)
{
    if (indices.size() != memref.type().shape().size())
        return "index count must match memref rank";
    return "";
}

std::string
verifyLoad(ir::Operation *op, const ir::OperandGroups &groups)
{
    return checkIndexCount(LoadOp(op).memref(), groups[1]);
}

std::string
verifyStore(ir::Operation *op, const ir::OperandGroups &groups)
{
    return checkIndexCount(StoreOp(op).memref(), groups[2]);
}

} // namespace

void
registerDialect(ir::Context &ctx)
{
    ctx.registerOp<ForOp>(verifyFor);
    ctx.registerOp<ParallelOp>(verifyParallel);
    ctx.registerOp<LoadOp>(verifyLoad);
    ctx.registerOp<StoreOp>(verifyStore);
    ctx.registerOp<YieldOp>();
}

} // namespace affine
} // namespace eq
