/**
 * @file
 * Arith dialect: scalar constants and integer/float arithmetic.
 *
 * The subset of MLIR's arith dialect that accelerator kernels in this
 * project use (the paper's examples embed `addi` etc. inside launch
 * blocks).
 */

#ifndef EQ_DIALECTS_ARITH_HH
#define EQ_DIALECTS_ARITH_HH

#include "ir/builder.hh"

namespace eq {
namespace arith {

/** `arith.constant {value} : () -> T` */
class ConstantOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "arith.constant";
    static constexpr ir::OpSignature opSignature{
        {}, {ir::one(ir::kScalarKind)}, {{"value", ir::kIntOrFloatAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, int64_t value,
                                ir::Type type);
    static ir::Operation *build(ir::OpBuilder &b, double value,
                                ir::Type type);

    ir::Attribute value() const { return _op->attr("value"); }
};

/** The binary elementwise ops, `name(lhs, rhs) -> T`: one signature
 *  and one builder for all of them. */
template <const char *Name>
struct BinaryOp : ir::OpView {
    using OpView::OpView;
    static constexpr const char *opName = Name;
    static constexpr ir::OpSignature opSignature{
        {ir::one(ir::kScalarKind), ir::one(ir::kScalarKind)},
        {ir::one(ir::kScalarKind)}};
    EQ_DECLARE_OP_ID()
    static ir::Operation *
    build(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs)
    {
        return b.create(opName, {lhs.type()}, {lhs, rhs});
    }
};

inline constexpr char kAddI[] = "arith.addi";
inline constexpr char kSubI[] = "arith.subi";
inline constexpr char kMulI[] = "arith.muli";
inline constexpr char kDivSI[] = "arith.divsi";
inline constexpr char kRemSI[] = "arith.remsi";
inline constexpr char kAddF[] = "arith.addf";
inline constexpr char kMulF[] = "arith.mulf";
using AddIOp = BinaryOp<kAddI>;
using SubIOp = BinaryOp<kSubI>;
using MulIOp = BinaryOp<kMulI>;
using DivSIOp = BinaryOp<kDivSI>;
using RemSIOp = BinaryOp<kRemSI>;
using AddFOp = BinaryOp<kAddF>;
using MulFOp = BinaryOp<kMulF>;

/** Register all arith ops with @p ctx. */
void registerDialect(ir::Context &ctx);

} // namespace arith
} // namespace eq

#endif // EQ_DIALECTS_ARITH_HH
