/**
 * @file
 * Operation / Block / Region: the region-nested IR core.
 *
 * Ownership: a Region owns its Blocks; a Block owns its Operations; an
 * Operation owns its Regions. Operations are created detached via
 * Operation::create and become owned when inserted into a block.
 *
 * Storage, laid out as MLIR lays out its ops: each Operation is one
 * block of its Context's IrStore (ir/store.hh) holding the op, its
 * result values, its regions, its operand slots and its attributes.
 * Operand and attribute slots are sized at creation; appendOperand or
 * a new setAttr beyond that moves them to a separate block of the
 * store. A Block links its ops through prev/next pointers inside each
 * Operation, so insert, remove, find and moveBefore are O(1), and a
 * Region links its blocks the same way. Block arguments live in a
 * short chain of argument chunks, so their addresses never move.
 * Blocks and argument chunks come from the store too, so building a
 * module makes no heap allocation of its own once the store has
 * chunks, and a rebuild in the same Context reuses the chunks of the
 * module it replaced.
 *
 * Teardown of a whole tree (OwningOpRef::reset, Operation::erase, a
 * Block's destructor) first drops every operand reference in the tree,
 * then returns each op to the store's free lists; the death of the
 * last tree of a Context rewinds the store (see ir/store.hh).
 */

#ifndef EQ_IR_OPERATION_HH
#define EQ_IR_OPERATION_HH

#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ir/attribute.hh"
#include "ir/context.hh"
#include "ir/value.hh"

namespace eq {
namespace ir {

class Region;
class Block;

/** A single IR operation with operands, results, attributes, regions. */
class Operation {
  public:
    /**
     * Create a detached operation.
     *
     * @param ctx owning context (used for ids and verification)
     * @param name full op name, e.g. "equeue.launch"
     * @param result_types one entry per result
     * @param operands SSA operands (use lists updated)
     * @param attrs attributes (an AttrDict converts), copied into the op
     * @param num_regions number of (initially empty) regions
     */
    static Operation *create(Context &ctx, std::string_view name,
                             TypeRange result_types, ValueRange operands,
                             AttrView attrs = {},
                             unsigned num_regions = 0);

    Operation(const Operation &) = delete;
    Operation &operator=(const Operation &) = delete;

    Context &context() const { return *_ctx; }
    /** Full op name; aliases the context's interned pool. */
    const std::string &name() const { return *_name; }
    /** Interned identity of the op *kind* (see ir/opid.hh). Compare and
     *  table-index with this instead of comparing name() strings. */
    OpId opId() const { return _opId; }
    /** Dialect prefix of the name ("equeue" of "equeue.launch"). */
    std::string dialect() const;
    /** Name with the dialect prefix stripped. */
    std::string shortName() const;
    /** Per-instance monotonic id (deterministic ordering aid). */
    uint64_t id() const { return _id; }

    /// @name Operands
    /// @{
    size_t numOperands() const { return _numOperands; }
    Value
    operand(unsigned i) const
    {
        if (i >= _numOperands)
            operandOutOfRange(i);
        return Value(_operands[i].value);
    }
    void setOperand(unsigned i, Value v);
    std::vector<Value> operands() const;
    /** Append an operand (updates use lists). */
    void appendOperand(Value v);
    /** Remove operand @p i (shifts the rest down). */
    void eraseOperand(unsigned i);
    /// @}

    /// @name Results
    /// @{
    size_t numResults() const { return _numResults; }
    Value
    result(unsigned i = 0)
    {
        if (i >= _numResults)
            resultOutOfRange(i);
        return Value(resultStorage() + i);
    }
    std::vector<Value> results();
    /// @}

    /// @name Attributes
    /// @{
    Attribute attr(std::string_view name) const { return attrs().get(name); }
    /** Insert or overwrite. */
    void setAttr(std::string_view name, Attribute a);
    /** Remove if present. */
    void removeAttr(std::string_view name);
    AttrView attrs() const { return AttrView(_attrs, _numAttrs); }
    /** Convenience accessors that fail loudly when missing. */
    int64_t intAttr(std::string_view name) const;
    int64_t intAttrOr(std::string_view name, int64_t dflt) const;
    const std::string &strAttr(std::string_view name) const;
    /// @}

    /// @name Regions
    /// @{
    size_t numRegions() const { return _numRegions; }
    Region &region(unsigned i = 0);
    const Region &region(unsigned i = 0) const;
    /// @}

    /// @name Position in the IR
    /// @{
    Block *block() const { return _block; }
    /** The op owning the region containing this op (null at top level). */
    Operation *parentOp() const;
    /** The next op in the containing block (null at the end or when
     *  detached). */
    Operation *nextInBlock() const { return _next; }
    /** Unlink from the containing block without destroying. */
    void remove();
    /** Unlink and destroy this op and everything nested in it; operands'
     *  use lists are updated. Its results must have no uses left. */
    void erase();
    /** Move this op immediately before @p other (same or other block). */
    void moveBefore(Operation *other);
    /** Move this op to the end of @p target. */
    void moveToEnd(Block *target);
    /// @}

    /**
     * Pre-order walk over this op and all nested ops. Each op's
     * successor is fetched before the callback runs, so the callback
     * may erase the op it is given (when it has no regions) or move it;
     * an op moved ahead of the walk is visited again.
     */
    void walk(const std::function<void(Operation *)> &fn);

    /**
     * Deep-copy this operation (attributes, regions, block args).
     * Operands are remapped through @p mapping when present, otherwise
     * reused as-is; the clone's results and block arguments are added to
     * @p mapping. The clone is detached (insert it yourself).
     */
    Operation *clone(std::map<ValueImpl *, Value> &mapping) const;

    /** Check this op and every op nested in it against its registered
     *  signature, then its semantic hook. Returns an empty string on
     *  success. A repeat call on the op that last passed, with no IR
     *  change in its Context since (Context::irGeneration), returns ""
     *  without checking again. */
    std::string verify();

    /** Print in generic textual form. */
    void print(std::ostream &os) const;
    std::string str() const;

  private:
    friend class Block;
    friend class OwningOpRef;
    friend struct OpOperand;

    Operation(Context &ctx, std::string_view name, unsigned num_results,
              unsigned num_regions, unsigned num_operands,
              unsigned num_attrs);
    ~Operation();

    [[noreturn, gnu::cold]] void operandOutOfRange(unsigned i) const;
    [[noreturn, gnu::cold]] void resultOutOfRange(unsigned i) const;

    /// @name Trailing storage of the op's single allocation
    /// @{
    ValueImpl *
    resultStorage() const
    {
        return reinterpret_cast<ValueImpl *>(
            const_cast<Operation *>(this + 1));
    }
    Region *regionStorage() const;
    OpOperand *inlineOperandStorage() const;
    NamedAttr *inlineAttrStorage() const;
    /** The size of the op's block in the store. */
    size_t storageBytes() const;
    /// @}
    /** Make room for one more attribute. */
    void growAttrs();
    /** verify() without the memo, for this op and every nested one:
     *  false, with the diagnostic in @p err, on the first failure. */
    bool verifyTree(std::string &err);
    /** Unlink every operand of this op and of every op nested in it
     *  from its value's use list. */
    void dropAllReferences();
    /** Free a tree whose references were already dropped. */
    static void destroyTree(Operation *op);

    Operation *_prev = nullptr; ///< intrusive block op list
    Operation *_next = nullptr;
    Block *_block = nullptr;
    Context *_ctx;
    const std::string *_name; ///< pooled; owned by the Context
    uint64_t _id;
    OpId _opId;
    unsigned _numResults;
    unsigned _numRegions;
    unsigned _numOperands = 0;
    unsigned _operandCapacity;
    unsigned _inlineOperands; ///< operand slots in the op's own block
    unsigned _numAttrs = 0;
    unsigned _attrCapacity;
    unsigned _inlineAttrs; ///< attribute slots in the op's own block
    OpOperand *_operands; ///< inline storage until appendOperand grows it
    NamedAttr *_attrs;    ///< inline storage until setAttr grows it
    // Trailing storage: ValueImpl results[_numResults], Region
    // regions[_numRegions], OpOperand operands[_inlineOperands],
    // NamedAttr attrs[_inlineAttrs].
};

inline unsigned
OpOperand::index() const
{
    return static_cast<unsigned>(this - owner->_operands);
}

/** A straight-line sequence of operations with block arguments. */
class Block {
  public:
    ~Block();

    Block(const Block &) = delete;
    Block &operator=(const Block &) = delete;

    /// @name Arguments
    /// @{
    Value addArgument(Type t);
    size_t numArguments() const { return _numArgs; }
    Value argument(unsigned i);
    std::vector<Value> arguments();
    /// @}

    /// @name Operations (owned)
    /// @{
    /** Iterates the block's ops in order; stays valid across edits
     *  that do not remove the op it points at. */
    class iterator {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Operation *;
        using difference_type = std::ptrdiff_t;
        using pointer = Operation *const *;
        using reference = Operation *const &;

        iterator() = default;
        explicit iterator(Operation *op) : _op(op) {}
        reference operator*() const { return _op; }
        iterator &
        operator++()
        {
            _op = _op->nextInBlock();
            return *this;
        }
        bool operator==(const iterator &o) const { return _op == o._op; }
        bool operator!=(const iterator &o) const { return _op != o._op; }

      private:
        Operation *_op = nullptr;
    };

    bool empty() const { return _first == nullptr; }
    size_t size() const { return _size; }
    iterator begin() { return iterator(_first); }
    iterator end() { return iterator(); }
    Operation *front() { return _first; }
    Operation *back() { return _last; }

    /** Append, taking ownership. */
    void push_back(Operation *op);
    /** Insert before @p where, taking ownership. */
    iterator insert(iterator where, Operation *op);
    /** Unlink @p op without destroying it. */
    void remove(Operation *op);
    /** Iterator to @p op; end() if absent. */
    iterator find(Operation *op);
    /// @}

    Region *parentRegion() const { return _parent; }
    Operation *parentOp() const;
    /** The next block of the parent region, or null. */
    Block *nextInRegion() const { return _nextBlock; }

    /** The trailing terminator op, or nullptr when empty. */
    Operation *terminator() { return _last; }

  private:
    friend class Region;
    friend class Operation;
    friend class Value;

    /** Blocks are made by Region::addBlock only. */
    Block() = default;

    /** The store of the Context this block's region belongs to. */
    IrStore &store() const;

    /** A fixed-capacity run of block arguments; chunks never move. */
    struct ArgChunk {
        ArgChunk *next;
        unsigned size;
        unsigned capacity;
        ValueImpl *args() { return reinterpret_cast<ValueImpl *>(this + 1); }
    };

    void dropAllReferences();
    /** Free the ops and arguments (references already dropped). */
    void destroyContents();
    /** Record an IR change, when this block is inside an op. */
    void noteIrChange();

    Operation *_first = nullptr; ///< intrusive op list
    Operation *_last = nullptr;
    size_t _size = 0;
    Region *_parent = nullptr;
    Block *_nextBlock = nullptr; ///< next block in the parent region
    ArgChunk *_argsHead = nullptr;
    ArgChunk *_argsTail = nullptr;
    unsigned _numArgs = 0;
};

/** A list of blocks owned by an operation. */
class Region {
  public:
    explicit Region(Operation *parent) : _parent(parent) {}
    ~Region();

    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;

    /** Iterates the region's blocks (as Block &) in order. */
    class iterator {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Block;
        using difference_type = std::ptrdiff_t;
        using pointer = Block *;
        using reference = Block &;

        explicit iterator(Block *b) : _b(b) {}
        Block &operator*() const { return *_b; }
        iterator &
        operator++()
        {
            _b = _b->nextInRegion();
            return *this;
        }
        bool operator==(const iterator &o) const { return _b == o._b; }
        bool operator!=(const iterator &o) const { return _b != o._b; }

      private:
        Block *_b;
    };

    bool empty() const { return _first == nullptr; }
    size_t numBlocks() const;
    Block &front() { return *_first; }
    const Block &front() const { return *_first; }
    /** Append a new empty block. */
    Block *addBlock();
    /** Move every block of @p other to the end of this region. */
    void takeBody(Region &other);
    iterator begin() const { return iterator(_first); }
    iterator end() const { return iterator(nullptr); }

    Operation *parentOp() const { return _parent; }

    /** Make sure the region has at least one (possibly empty) block. */
    Block &ensureBlock();

  private:
    friend class Operation;

    Operation *_parent;
    Block *_first = nullptr;
    Block *_last = nullptr;
};

/** Owning handle for a detached op tree (usually the module). */
class OwningOpRef {
  public:
    OwningOpRef() = default;
    explicit OwningOpRef(Operation *op) : _op(op) {}
    OwningOpRef(OwningOpRef &&o) noexcept : _op(o._op) { o._op = nullptr; }
    OwningOpRef &
    operator=(OwningOpRef &&o) noexcept
    {
        reset();
        _op = o._op;
        o._op = nullptr;
        return *this;
    }
    ~OwningOpRef() { reset(); }

    Operation *get() const { return _op; }
    Operation *operator->() const { return _op; }
    explicit operator bool() const { return _op != nullptr; }
    Operation *
    release()
    {
        Operation *op = _op;
        _op = nullptr;
        return op;
    }
    /** Destroy the tree: drop every reference in it, then free each op. */
    void reset();

  private:
    Operation *_op = nullptr;
};

} // namespace ir
} // namespace eq

#endif // EQ_IR_OPERATION_HH
