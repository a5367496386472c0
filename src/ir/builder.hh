/**
 * @file
 * OpBuilder: insertion-point-based construction of operations.
 *
 * Dialect headers layer typed wrapper classes (with static `build`
 * methods) on top; this class provides the untyped core plus insertion
 * point management, mirroring mlir::OpBuilder.
 */

#ifndef EQ_IR_BUILDER_HH
#define EQ_IR_BUILDER_HH

#include <string>
#include <string_view>
#include <vector>

#include "base/logging.hh"
#include "ir/operation.hh"

namespace eq {
namespace ir {

/** Builds operations at a movable insertion point. */
class OpBuilder {
  public:
    explicit OpBuilder(Context &ctx) : _ctx(&ctx) {}

    Context &context() const { return *_ctx; }

    /// @name Insertion point management
    /// @{
    void
    setInsertionPointToEnd(Block *block)
    {
        _block = block;
        _atEnd = true;
    }
    void
    setInsertionPoint(Block *block, Block::iterator it)
    {
        _block = block;
        _it = it;
        _atEnd = false;
    }
    /** Insert right before @p op. */
    void
    setInsertionPoint(Operation *op)
    {
        Block *b = op->block();
        setInsertionPoint(b, b->find(op));
    }
    /** Insert right after @p op. */
    void
    setInsertionPointAfter(Operation *op)
    {
        Block *b = op->block();
        auto it = b->find(op);
        ++it;
        setInsertionPoint(b, it);
    }
    Block *insertionBlock() const { return _block; }
    /// @}

    /** Create and insert an op at the current insertion point. */
    Operation *
    create(std::string_view name, TypeRange result_types,
           ValueRange operands, AttrView attrs = {},
           unsigned num_regions = 0)
    {
        Operation *op = Operation::create(*_ctx, name, result_types,
                                          operands, attrs, num_regions);
        insert(op);
        return op;
    }

    /** Create a detached op (no insertion). */
    Operation *
    createDetached(std::string_view name, TypeRange result_types,
                   ValueRange operands, AttrView attrs = {},
                   unsigned num_regions = 0)
    {
        return Operation::create(*_ctx, name, result_types, operands,
                                 attrs, num_regions);
    }

    /** Typed creation: OpT must expose
     *  `static Operation *build(OpBuilder&, Args...)`. */
    template <typename OpT, typename... Args>
    OpT
    create(Args &&...args)
    {
        return OpT(OpT::build(*this, std::forward<Args>(args)...));
    }

    /** Insert a detached op at the current insertion point. */
    void
    insert(Operation *op)
    {
        eq_assert(_block, "builder has no insertion point");
        if (_atEnd) {
            _block->push_back(op);
        } else {
            _it = _block->insert(_it, op);
            ++_it;
        }
    }

    /** RAII save/restore of the insertion point. */
    class InsertionGuard {
      public:
        explicit InsertionGuard(OpBuilder &b)
            : _b(b), _block(b._block), _it(b._it), _atEnd(b._atEnd)
        {}
        ~InsertionGuard()
        {
            _b._block = _block;
            _b._it = _it;
            _b._atEnd = _atEnd;
        }

      private:
        OpBuilder &_b;
        Block *_block;
        Block::iterator _it;
        bool _atEnd;
    };

  private:
    Context *_ctx;
    Block *_block = nullptr;
    Block::iterator _it;
    bool _atEnd = true;
};

/** Create a fresh top-level `builtin.module` op with one empty block. */
OwningOpRef createModule(Context &ctx);

/** A thin typed view over an Operation*, base for dialect wrappers. */
class OpView {
  public:
    OpView() = default;
    explicit OpView(Operation *op) : _op(op) {}
    explicit operator bool() const { return _op != nullptr; }
    Operation *op() const { return _op; }
    Operation *operator->() const { return _op; }

  protected:
    /** The operands of group @p g of @p sig. */
    std::vector<Value>
    operandsOf(const OpSignature &sig, unsigned g) const
    {
        GroupBounds b = ir::operandGroup(sig, *_op, g);
        std::vector<Value> out;
        out.reserve(b.size());
        for (unsigned i = b.begin; i < b.end; ++i)
            out.push_back(_op->operand(i));
        return out;
    }
    /** The first operand of group @p g of @p sig; null when the group
     *  is empty (an absent optional operand). */
    Value
    operandOf(const OpSignature &sig, unsigned g) const
    {
        GroupBounds b = ir::operandGroup(sig, *_op, g);
        return b.size() ? _op->operand(b.begin) : Value();
    }

    Operation *_op = nullptr;
};

/**
 * Declares `static ir::OpId id(ir::Context&)` on a dialect op view
 * class, resolving the class's `opName` to its interned id through a
 * per-context cache slot: one interning on first use per context, a
 * plain vector index afterwards. Lets passes and the engine compare
 * `op->opId() == FooOp::id(ctx)` without ever touching strings.
 */
#define EQ_DECLARE_OP_ID()                                                  \
    static ::eq::ir::OpId                                                   \
    id(::eq::ir::Context &ctx)                                              \
    {                                                                       \
        static const ::eq::ir::OpIdCache cache{opName};                     \
        return cache.get(ctx);                                              \
    }

/** True when @p op is an instance of the dialect op class @p OpT. */
template <typename OpT>
inline bool
isa(const Operation *op)
{
    return op && op->opId() == OpT::id(op->context());
}

} // namespace ir
} // namespace eq

#endif // EQ_IR_BUILDER_HH
