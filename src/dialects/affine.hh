/**
 * @file
 * Affine dialect subset: counted loops, parallel loop nests, and
 * load/store on memrefs. The `--convert-linalg-to-affine-loops` pass
 * lowers convolutions into these ops; `--equeue-read-write` then converts
 * load/store into EQueue data movement.
 */

#ifndef EQ_DIALECTS_AFFINE_HH
#define EQ_DIALECTS_AFFINE_HH

#include "ir/builder.hh"

namespace eq {
namespace affine {

constexpr ir::KindMask kShapedKind =
    ir::kinds(ir::TypeKind::MemRef, ir::TypeKind::Buffer);

/**
 * `affine.for {lb, ub, step}` with a single-block region whose one
 * argument is the induction variable (index type).
 */
class ForOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "affine.for";
    static constexpr ir::OpSignature opSignature{
        {},
        {},
        {{"lb", ir::kIntAttr}, {"ub", ir::kIntAttr}, {"step", ir::kIntAttr}},
        /*regions=*/1};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, int64_t lb, int64_t ub,
                                int64_t step = 1);

    int64_t lb() const { return _op->intAttr("lb"); }
    int64_t ub() const { return _op->intAttr("ub"); }
    int64_t step() const { return _op->intAttr("step"); }
    ir::Block &body() { return _op->region(0).front(); }
    ir::Value inductionVar() { return body().argument(0); }
};

/**
 * `affine.parallel {lbs, ubs, steps}` — a multi-dimensional parallel
 * loop nest. One region; block args are the induction variables.
 */
class ParallelOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "affine.parallel";
    static constexpr ir::OpSignature opSignature{
        {},
        {},
        {{"lbs", ir::kI64ArrayAttr},
         {"ubs", ir::kI64ArrayAttr},
         {"steps", ir::kI64ArrayAttr}},
        /*regions=*/1};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, std::vector<int64_t> lbs,
                                std::vector<int64_t> ubs,
                                std::vector<int64_t> steps = {});

    std::vector<int64_t> lbs() const
    {
        return _op->attr("lbs").asI64Array();
    }
    std::vector<int64_t> ubs() const
    {
        return _op->attr("ubs").asI64Array();
    }
    std::vector<int64_t> steps() const
    {
        return _op->attr("steps").asI64Array();
    }
    ir::Block &body() { return _op->region(0).front(); }
};

/** `affine.load(%memref, %i...) -> elem` */
class LoadOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "affine.load";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kShapedKind), ir::rest(ir::kIndexKind)},
        {ir::one(ir::kScalarKind)}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value memref,
                                ir::ValueRange indices);

    ir::Value memref() const { return _op->operand(0); }
    std::vector<ir::Value> indices() const
    {
        return operandsOf(opSignature, 1);
    }
};

/** `affine.store(%value, %memref, %i...)` */
class StoreOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "affine.store";
    static constexpr ir::OpSignature opSignature{
        {ir::one(ir::kScalarKind), ir::one(kShapedKind),
         ir::rest(ir::kIndexKind)},
        {}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value value,
                                ir::Value memref,
                                ir::ValueRange indices);

    ir::Value value() const { return _op->operand(0); }
    ir::Value memref() const { return _op->operand(1); }
    std::vector<ir::Value> indices() const
    {
        return operandsOf(opSignature, 2);
    }
};

/** `affine.yield(values...)` — loop body terminator. */
class YieldOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "affine.yield";
    static constexpr ir::OpSignature opSignature{
        {ir::rest(ir::kAnyKind)}, {}, {}, 0, /*terminator=*/true};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b,
                                ir::ValueRange values = {});
};

void registerDialect(ir::Context &ctx);

} // namespace affine
} // namespace eq

#endif // EQ_DIALECTS_AFFINE_HH
