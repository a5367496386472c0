#include "dialects/arith.hh"

namespace eq {
namespace arith {

ir::Operation *
ConstantOp::build(ir::OpBuilder &b, int64_t value, ir::Type type)
{
    ir::AttrDict attrs;
    attrs.set("value", ir::Attribute::integer(value));
    return b.create(opName, {type}, {}, attrs);
}

ir::Operation *
ConstantOp::build(ir::OpBuilder &b, double value, ir::Type type)
{
    ir::AttrDict attrs;
    attrs.set("value", ir::Attribute::floating(value));
    return b.create(opName, {type}, {}, attrs);
}

void
registerDialect(ir::Context &ctx)
{
    ctx.registerOp<ConstantOp>();
    ctx.registerOp<AddIOp>();
    ctx.registerOp<SubIOp>();
    ctx.registerOp<MulIOp>();
    ctx.registerOp<DivSIOp>();
    ctx.registerOp<RemSIOp>();
    ctx.registerOp<AddFOp>();
    ctx.registerOp<MulFOp>();
}

} // namespace arith
} // namespace eq
