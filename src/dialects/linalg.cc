#include "dialects/linalg.hh"

#include "base/logging.hh"

namespace eq {
namespace linalg {

ir::Operation *
ConvOp::build(ir::OpBuilder &b, ir::Value ifmap, ir::Value weight,
              ir::Value ofmap)
{
    return b.create(opName, {}, {ifmap, weight, ofmap});
}

ir::Operation *
MatmulOp::build(ir::OpBuilder &b, ir::Value a, ir::Value bm, ir::Value c)
{
    return b.create(opName, {}, {a, bm, c});
}

ir::Operation *
FillOp::build(ir::OpBuilder &b, ir::Value memref, int64_t value)
{
    ir::AttrDict attrs;
    attrs.set("value", ir::Attribute::integer(value));
    return b.create(opName, {}, {memref}, attrs);
}

ConvDims
convDims(ir::Operation *conv)
{
    eq_assert(ir::isa<ConvOp>(conv), "not a linalg.conv");
    ir::Type it = conv->operand(0).type();
    ir::Type wt = conv->operand(1).type();
    ir::Type ot = conv->operand(2).type();
    eq_assert(it.shape().size() == 3 && wt.shape().size() == 4 &&
                  ot.shape().size() == 3,
              "linalg.conv operand ranks must be 3/4/3");
    ConvDims d{};
    d.C = it.shape()[0];
    d.H = it.shape()[1];
    d.W = it.shape()[2];
    d.N = wt.shape()[0];
    d.Fh = wt.shape()[2];
    d.Fw = wt.shape()[3];
    d.Eh = ot.shape()[1];
    d.Ew = ot.shape()[2];
    return d;
}

namespace {

std::string
verifyConv(ir::Operation *op, const ir::OperandGroups &)
{
    ir::Type it = op->operand(0).type();
    ir::Type wt = op->operand(1).type();
    ir::Type ot = op->operand(2).type();
    if (it.shape().size() != 3)
        return "ifmap must be rank 3 (C x H x W)";
    if (wt.shape().size() != 4)
        return "weight must be rank 4 (N x C x Fh x Fw)";
    if (ot.shape().size() != 3)
        return "ofmap must be rank 3 (N x Eh x Ew)";
    if (it.shape()[0] != wt.shape()[1])
        return "channel mismatch between ifmap and weight";
    if (ot.shape()[0] != wt.shape()[0])
        return "filter count mismatch between weight and ofmap";
    int64_t eh = it.shape()[1] - wt.shape()[2] + 1;
    int64_t ew = it.shape()[2] - wt.shape()[3] + 1;
    if (ot.shape()[1] != eh || ot.shape()[2] != ew)
        return "ofmap spatial dims must be (H-Fh+1) x (W-Fw+1)";
    return "";
}

std::string
verifyMatmul(ir::Operation *op, const ir::OperandGroups &)
{
    ir::Type a = op->operand(0).type();
    ir::Type b = op->operand(1).type();
    ir::Type c = op->operand(2).type();
    if (a.shape().size() != 2 || b.shape().size() != 2 ||
        c.shape().size() != 2)
        return "operands must be rank-2 memrefs";
    if (a.shape()[1] != b.shape()[0] || c.shape()[0] != a.shape()[0] ||
        c.shape()[1] != b.shape()[1])
        return "matmul shape mismatch";
    return "";
}

} // namespace

void
registerDialect(ir::Context &ctx)
{
    ctx.registerOp<ConvOp>(verifyConv);
    ctx.registerOp<MatmulOp>(verifyMatmul);
    ctx.registerOp<FillOp>();
}

} // namespace linalg
} // namespace eq
