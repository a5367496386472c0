#include "dialects/memref.hh"

namespace eq {
namespace memref {

ir::Operation *
AllocOp::build(ir::OpBuilder &b, std::vector<int64_t> shape,
               unsigned elem_bits)
{
    ir::Type t = b.context().memrefType(std::move(shape), elem_bits);
    return b.create(opName, {t}, {});
}

ir::Operation *
DeallocOp::build(ir::OpBuilder &b, ir::Value memref)
{
    return b.create(opName, {}, {memref});
}

void
registerDialect(ir::Context &ctx)
{
    ctx.registerOp<AllocOp>();
    ctx.registerOp<DeallocOp>();
}

} // namespace memref
} // namespace eq
