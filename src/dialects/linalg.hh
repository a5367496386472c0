/**
 * @file
 * Linalg dialect subset: named tensor computations on memrefs.
 *
 * The lowering pipeline of the paper starts at this level: a convolution
 * expressed as one `linalg.conv` op, later lowered to explicit affine
 * loops and finally to an EQueue hardware model. The simulator can also
 * execute this level directly, using an analytic cost model, which gives
 * the fast/abstract end of the multi-level spectrum (Fig. 1).
 */

#ifndef EQ_DIALECTS_LINALG_HH
#define EQ_DIALECTS_LINALG_HH

#include "ir/builder.hh"

namespace eq {
namespace linalg {

/** Three shaped operands, the form conv and matmul share. */
constexpr ir::KindMask kShapedKind =
    ir::kinds(ir::TypeKind::MemRef, ir::TypeKind::Buffer);
constexpr ir::OpSignature kTernarySignature{
    {ir::one(kShapedKind), ir::one(kShapedKind), ir::one(kShapedKind)}, {}};

/**
 * 2-D multi-channel convolution with N filters:
 *
 *   ofmap[n][eh][ew] += ifmap[c][eh+fh][ew+fw] * weight[n][c][fh][fw]
 *
 * Shapes: ifmap memref<C x H x W>, weight memref<N x C x Fh x Fw>,
 * ofmap memref<N x Eh x Ew> with Eh = H-Fh+1, Ew = W-Fw+1.
 */
class ConvOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "linalg.conv";
    static constexpr ir::OpSignature opSignature = kTernarySignature;
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value ifmap,
                                ir::Value weight, ir::Value ofmap);

    ir::Value ifmap() const { return _op->operand(0); }
    ir::Value weight() const { return _op->operand(1); }
    ir::Value ofmap() const { return _op->operand(2); }
};

/** `linalg.matmul(%a, %b, %c)`: C += A * B on 2-D memrefs. */
class MatmulOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "linalg.matmul";
    static constexpr ir::OpSignature opSignature = kTernarySignature;
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value a, ir::Value bm,
                                ir::Value c);
};

/** `linalg.fill(%memref) {value}`: splat a scalar constant. */
class FillOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "linalg.fill";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kShapedKind)}, {}, {{"value", ir::kIntAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value memref,
                                int64_t value);

    int64_t fillValue() const { return _op->intAttr("value"); }
};

/** Dimensions of a ConvOp, derived from its operand types. */
struct ConvDims {
    int64_t C, H, W;    ///< ifmap: channels, height, width
    int64_t N, Fh, Fw;  ///< weight: filters, filter height/width
    int64_t Eh, Ew;     ///< ofmap spatial dims

    int64_t macs() const { return N * Eh * Ew * C * Fh * Fw; }
};

/** Extract (and sanity-check) the conv dimensions from op types. */
ConvDims convDims(ir::Operation *conv);

void registerDialect(ir::Context &ctx);

} // namespace linalg
} // namespace eq

#endif // EQ_DIALECTS_LINALG_HH
