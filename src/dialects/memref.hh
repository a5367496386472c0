/**
 * @file
 * MemRef dialect: host-level shaped buffers used by the Linalg and Affine
 * stages of the lowering pipeline, before buffers are placed on modeled
 * device memories by the allocate-buffer pass.
 */

#ifndef EQ_DIALECTS_MEMREF_HH
#define EQ_DIALECTS_MEMREF_HH

#include "ir/builder.hh"

namespace eq {
namespace memref {

/** `memref.alloc() : () -> memref<shape x iN>` */
class AllocOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "memref.alloc";
    static constexpr ir::OpSignature opSignature{
        {}, {ir::one(ir::kinds(ir::TypeKind::MemRef))}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b,
                                std::vector<int64_t> shape,
                                unsigned elem_bits);
};

/** `memref.dealloc(%m)` */
class DeallocOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "memref.dealloc";
    static constexpr ir::OpSignature opSignature{
        {ir::one(ir::kinds(ir::TypeKind::MemRef))}, {}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value memref);
};

void registerDialect(ir::Context &ctx);

} // namespace memref
} // namespace eq

#endif // EQ_DIALECTS_MEMREF_HH
