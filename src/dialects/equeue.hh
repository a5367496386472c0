/**
 * @file
 * The EQueue dialect (the paper's core contribution, Section III).
 *
 * Ops fall into four groups:
 *  - structure:    create_proc / create_mem / create_dma / create_comp /
 *                  add_comp / get_comp / create_connection / create_stream
 *  - data motion:  alloc / dealloc / read / write / stream_read /
 *                  stream_write
 *  - control:      launch / memcpy / control_start / control_and /
 *                  control_or / await / return
 *  - extension:    equeue.op (custom signatures, Section III-E)
 *
 * Each op's operand layout, results, attributes and regions are
 * declared once, in its class's `opSignature` (see ir/signature.hh). The
 * verifier, the operand accessors below and the simulation engine all
 * read the layout from there.
 */

#ifndef EQ_DIALECTS_EQUEUE_HH
#define EQ_DIALECTS_EQUEUE_HH

#include <optional>

#include "ir/builder.hh"

namespace eq {
namespace equeue {

/// @name Type-kind sets the signatures below share
/// @{
using Kind = ir::TypeKind;
using ir::kinds;
constexpr ir::KindMask kEvent = kinds(Kind::Event);
constexpr ir::KindMask kBuffer = kinds(Kind::Buffer);
constexpr ir::KindMask kConn = kinds(Kind::Connection);
constexpr ir::KindMask kComp = kinds(Kind::Comp);
/** What create_comp may hold and get_comp may return. */
constexpr ir::KindMask kSubcomp =
    kinds(Kind::Proc, Kind::Mem, Kind::Dma, Kind::Comp, Kind::Stream);
/** Where a launch or memcpy runs. */
constexpr ir::KindMask kExecutor = kinds(Kind::Proc, Kind::Dma);
/** Values that reads produce and writes store. */
constexpr ir::KindMask kData =
    kinds(Kind::Tensor, Kind::Integer, Kind::Index, Kind::Float);
/// @}

// ---------------------------------------------------------------------------
// Structure ops

/** `equeue.create_proc {kind}` — processor kinds are simulator-library
 *  model names: "ARMr5", "ARMr6", "MAC", "AIEngine", "Generic". */
class CreateProcOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.create_proc";
    static constexpr ir::OpSignature opSignature{
        {}, {ir::one(kinds(Kind::Proc))}, {{"kind", ir::kStringAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, const std::string &kind);
    const std::string &kind() const { return _op->strAttr("kind"); }
};

/** `equeue.create_dma` — a processor specialised for data movement. */
class CreateDmaOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.create_dma";
    static constexpr ir::OpSignature opSignature{
        {}, {ir::one(kinds(Kind::Dma))}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b);
};

/**
 * `equeue.create_mem {kind, shape, data_bits, banks}` — memory kinds are
 * component-library model names: "SRAM", "Register", "DRAM", or any
 * custom-registered memory class (e.g. "Cache").
 */
class CreateMemOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.create_mem";
    static constexpr ir::OpSignature opSignature{
        {},
        {ir::one(kinds(Kind::Mem))},
        {{"kind", ir::kStringAttr},
         {"shape", ir::kI64ArrayAttr},
         {"data_bits", ir::kIntAttr},
         {"banks", ir::kIntAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, const std::string &kind,
                                ir::ArrayRef<int64_t> shape,
                                unsigned data_bits, unsigned banks = 1);
    const std::string &kind() const { return _op->strAttr("kind"); }
    std::vector<int64_t> shape() const
    {
        return _op->attr("shape").asI64Array();
    }
    unsigned dataBits() const
    {
        return static_cast<unsigned>(_op->intAttr("data_bits"));
    }
    unsigned banks() const
    {
        return static_cast<unsigned>(_op->intAttr("banks"));
    }
};

/** `equeue.create_stream {data_bits}` — a FIFO stream endpoint
 *  (models AXI4-Stream style interfaces in the AI Engine case study). */
class CreateStreamOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.create_stream";
    static constexpr ir::OpSignature opSignature{
        {},
        {ir::one(kinds(Kind::Stream))},
        {{"data_bits", ir::kIntAttr, /*required=*/false}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, unsigned data_bits);
};

/** `equeue.create_comp {names}(subcomponents...)` */
class CreateCompOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.create_comp";
    static constexpr ir::OpSignature opSignature{
        {ir::rest(kSubcomp)}, {ir::one(kComp)}, {{"names", ir::kStringAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, const std::string &names,
                                ir::ValueRange subcomps);
};

/** `equeue.add_comp {names}(comp, subcomponents...)` */
class AddCompOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.add_comp";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kComp), ir::rest(kSubcomp)}, {}, {{"names", ir::kStringAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value comp,
                                const std::string &names,
                                ir::ValueRange subcomps);
};

/** `equeue.extract_comp {prefix, indices}(comp) -> component` —
 *  symbolic indexed reference into a component array (e.g. prefix
 *  "PE_" + indices [1,2] names "PE_1_2"); produced by
 *  --parallel-to-equeue, resolved to get_comp by --lower-extraction. */
class ExtractCompOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.extract_comp";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kComp)},
        {ir::one(kSubcomp)},
        {{"prefix", ir::kStringAttr}, {"indices", ir::kI64ArrayAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value comp,
                                const std::string &prefix,
                                ir::ArrayRef<int64_t> indices,
                                ir::Type result_type);
    /** The component name the reference resolves to. */
    std::string resolvedName() const;
};

/** `equeue.get_comp {name}(comp) -> component` */
class GetCompOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.get_comp";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kComp)}, {ir::one(kSubcomp)}, {{"name", ir::kStringAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value comp,
                                const std::string &name,
                                ir::Type result_type);
};

/** `equeue.create_connection {kind, bandwidth}` — kind is "Streaming"
 *  (simultaneous read+write) or "Window" (exclusive locking);
 *  bandwidth is bytes/cycle, 0 meaning unlimited (§III-A). */
class CreateConnectionOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.create_connection";
    static constexpr ir::OpSignature opSignature{
        {},
        {ir::one(kConn)},
        {{"kind", ir::kStringAttr}, {"bandwidth", ir::kIntAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, const std::string &kind,
                                int64_t bandwidth_bytes_per_cycle);
    const std::string &kind() const { return _op->strAttr("kind"); }
    int64_t bandwidth() const { return _op->intAttr("bandwidth"); }
};

// ---------------------------------------------------------------------------
// Data movement ops

/** `equeue.alloc(mem) -> !equeue.buffer<shape x bits>` */
class AllocOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.alloc";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kinds(Kind::Mem))}, {ir::one(kBuffer)}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value mem,
                                ir::ArrayRef<int64_t> shape,
                                unsigned elem_bits);
    ir::Value mem() const { return _op->operand(0); }
};

/** `equeue.dealloc(buffer)` */
class DeallocOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.dealloc";
    static constexpr ir::OpSignature opSignature{{ir::one(kBuffer)}, {}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value buffer);
};

/**
 * `equeue.read(buffer (, conn) (, indices...))`.
 * Without indices the whole buffer is read and the result is a tensor;
 * with indices a single element is read and the result is a scalar.
 */
class ReadOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.read";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kBuffer), ir::optional(kConn, "has_conn"),
         ir::counted(ir::kIndexKind, "num_indices", 0)},
        {ir::one(kData)}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value buffer,
                                ir::Value conn = ir::Value(),
                                ir::ValueRange indices = {});

    ir::Value buffer() const { return _op->operand(0); }
    bool hasConn() const { return static_cast<bool>(conn()); }
    ir::Value conn() const { return operandOf(opSignature, 1); }
    std::vector<ir::Value> indices() const
    {
        return operandsOf(opSignature, 2);
    }
};

/** `equeue.write(value, buffer (, conn) (, indices...))`. */
class WriteOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.write";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kData), ir::one(kBuffer), ir::optional(kConn, "has_conn"),
         ir::counted(ir::kIndexKind, "num_indices", 0)},
        {}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value value,
                                ir::Value buffer,
                                ir::Value conn = ir::Value(),
                                ir::ValueRange indices = {});

    ir::Value value() const { return _op->operand(0); }
    ir::Value buffer() const { return _op->operand(1); }
    bool hasConn() const { return static_cast<bool>(conn()); }
    ir::Value conn() const { return operandOf(opSignature, 2); }
    std::vector<ir::Value> indices() const
    {
        return operandsOf(opSignature, 3);
    }
};

/** `equeue.stream_read(stream (, conn)) {elems}` -> tensor<elems x bits>.
 *  Blocks the executing processor until `elems` elements are available. */
class StreamReadOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.stream_read";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kinds(Kind::Stream)), ir::optional(kConn, "has_conn")},
        {ir::one(kinds(Kind::Tensor))},
        {{"elems", ir::kIntAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value stream,
                                int64_t elems, unsigned elem_bits,
                                ir::Value conn = ir::Value());
    ir::Value stream() const { return _op->operand(0); }
    bool hasConn() const { return static_cast<bool>(conn()); }
    ir::Value conn() const { return operandOf(opSignature, 1); }
};

/** `equeue.stream_write(value, stream (, conn))`. */
class StreamWriteOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.stream_write";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kData), ir::one(kinds(Kind::Stream)),
         ir::optional(kConn, "has_conn")},
        {}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value value,
                                ir::Value stream,
                                ir::Value conn = ir::Value());
    ir::Value value() const { return _op->operand(0); }
    ir::Value stream() const { return _op->operand(1); }
    bool hasConn() const { return static_cast<bool>(conn()); }
    ir::Value conn() const { return operandOf(opSignature, 2); }
};

// ---------------------------------------------------------------------------
// Control ops

/** `equeue.control_start() -> event` — begins a chain of events. */
class ControlStartOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.control_start";
    static constexpr ir::OpSignature opSignature{{}, {ir::one(kEvent)}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b);
};

/** `equeue.control_and(events...) -> event` — ready when all finish
 *  (at least one event). */
class ControlAndOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.control_and";
    static constexpr ir::OpSignature opSignature{
        {ir::rest(kEvent, /*min=*/1)}, {ir::one(kEvent)}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b,
                                ir::ValueRange events);
};

/** `equeue.control_or(events...) -> event` — ready when any finishes
 *  (at least one event). */
class ControlOrOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.control_or";
    static constexpr ir::OpSignature opSignature{
        {ir::rest(kEvent, /*min=*/1)}, {ir::one(kEvent)}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b,
                                ir::ValueRange events);
};

/**
 * `equeue.launch(deps..., proc, captured...) ({body}) -> (event,
 * returns...)`. The body is dispatched onto `proc`'s event queue once all
 * deps complete; block args alias the captured values.
 */
class LaunchOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.launch";
    static constexpr ir::OpSignature opSignature{
        {ir::counted(kEvent, "num_deps", 1, /*min=*/1), ir::one(kExecutor),
         ir::rest(ir::kAnyKind)},
        {ir::one(kEvent), ir::rest(ir::kAnyKind)},
        {},
        /*regions=*/1};
    EQ_DECLARE_OP_ID()

    /**
     * @param deps events this launch waits for (>= 1)
     * @param proc target processor (proc or dma typed)
     * @param captured resources handed to the body
     * @param return_types types of values the body returns
     */
    static ir::Operation *build(ir::OpBuilder &b,
                                ir::ValueRange deps, ir::Value proc,
                                ir::ValueRange captured,
                                ir::TypeRange return_types = {});

    unsigned numDeps() const
    {
        return ir::operandGroup(opSignature, *_op, 0).size();
    }
    std::vector<ir::Value> deps() const { return operandsOf(opSignature, 0); }
    ir::Value proc() const { return operandOf(opSignature, 1); }
    std::vector<ir::Value> captured() const
    {
        return operandsOf(opSignature, 2);
    }
    ir::Block &body() { return _op->region(0).front(); }
    ir::Value done() { return _op->result(0); }
};

/** `equeue.memcpy(dep, src, dst, dma (, conn)) -> event`. */
class MemcpyOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.memcpy";
    static constexpr ir::OpSignature opSignature{
        {ir::one(kEvent), ir::one(kBuffer), ir::one(kBuffer),
         ir::one(kExecutor), ir::optional(kConn, "has_conn")},
        {ir::one(kEvent)}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b, ir::Value dep,
                                ir::Value src, ir::Value dst, ir::Value dma,
                                ir::Value conn = ir::Value());

    ir::Value dep() const { return _op->operand(0); }
    ir::Value src() const { return _op->operand(1); }
    ir::Value dst() const { return _op->operand(2); }
    ir::Value dma() const { return _op->operand(3); }
    bool hasConn() const { return static_cast<bool>(conn()); }
    ir::Value conn() const { return operandOf(opSignature, 4); }
    ir::Value done() { return _op->result(0); }
};

/** `equeue.await(events...)` — blocks the current block; with no
 *  operands, waits for every event previously spawned by this block. */
class AwaitOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.await";
    static constexpr ir::OpSignature opSignature{{ir::rest(kEvent)}, {}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b,
                                ir::ValueRange events = {});
};

/** `equeue.return(values...)` — launch body terminator. */
class ReturnOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.return";
    static constexpr ir::OpSignature opSignature{
        {ir::rest(ir::kAnyKind)}, {}, {}, 0, /*terminator=*/true};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b,
                                ir::ValueRange values = {});
};

// ---------------------------------------------------------------------------
// Extension op (Section III-E)

/**
 * `equeue.op {signature}(args...) -> (results...)` — escape hatch for
 * hardware operations no dialect expresses; the simulation engine looks
 * up `signature` in its OpFunction registry (e.g. "mul4", "mac4").
 */
class ExternOp : public ir::OpView {
  public:
    using OpView::OpView;
    static constexpr const char *opName = "equeue.op";
    static constexpr ir::OpSignature opSignature{
        {ir::rest(ir::kAnyKind)},
        {ir::rest(ir::kAnyKind)},
        {{"signature", ir::kStringAttr}}};
    EQ_DECLARE_OP_ID()

    static ir::Operation *build(ir::OpBuilder &b,
                                const std::string &signature,
                                ir::ValueRange args,
                                ir::TypeRange result_types = {});
    const std::string &signature() const
    {
        return _op->strAttr("signature");
    }
};

/** Register all EQueue ops with @p ctx. */
void registerDialect(ir::Context &ctx);

} // namespace equeue
} // namespace eq

#endif // EQ_DIALECTS_EQUEUE_HH
