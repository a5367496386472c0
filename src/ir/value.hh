/**
 * @file
 * SSA values with intrusive use lists.
 *
 * A Value is a handle onto a ValueImpl stored inline in its defining
 * Operation's allocation (op results) or in its Block's argument storage
 * (block arguments); either way its address is stable for its lifetime.
 *
 * Each operand slot of an operation is an OpOperand, and the OpOperands
 * reading one value form a doubly linked list threaded through the
 * slots themselves. Uses iterate in the order they were attached
 * (setOperand re-attaches at the tail), and attaching or detaching one
 * is O(1): no per-value vector, no scan. uses() yields (user op,
 * operand index) pairs so passes can inspect and replaceAllUsesWith.
 */

#ifndef EQ_IR_VALUE_HH
#define EQ_IR_VALUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "ir/type.hh"

namespace eq {
namespace ir {

class Operation;
class Block;
struct ValueImpl;

/**
 * A non-owning view of a contiguous sequence. It binds a braced list,
 * a vector or a SmallVector alike, so passing `{t1, t2}` to
 * Operation::create copies nothing. Only use it as a
 * parameter: a view of a braced list or of a temporary dangles once the
 * enclosing full-expression ends.
 */
template <typename T>
class ArrayRef {
  public:
    ArrayRef() = default;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
    ArrayRef(std::initializer_list<T> l) : _data(l.begin()), _size(l.size())
    {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    ArrayRef(const std::vector<T> &v) : _data(v.data()), _size(v.size()) {}
    ArrayRef(const T *data, size_t size) : _data(data), _size(size) {}

    const T *begin() const { return _data; }
    const T *end() const { return _data + _size; }
    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    const T &operator[](size_t i) const { return _data[i]; }

  private:
    const T *_data = nullptr;
    size_t _size = 0;
};

/**
 * A vector whose first N elements live inline, so collecting up to N
 * values (an op's operands before Operation::create) never touches the
 * heap. T must be cheap to default-construct and copy.
 */
template <typename T, unsigned N>
class SmallVector {
  public:
    void
    push_back(const T &v)
    {
        if (_heap.empty() && _size < N) {
            _inline[_size++] = v;
            return;
        }
        if (_heap.empty())
            _heap.assign(_inline.begin(), _inline.begin() + _size);
        _heap.push_back(v);
        ++_size;
    }
    void
    append(ArrayRef<T> values)
    {
        for (const T &v : values)
            push_back(v);
    }

    const T *
    data() const
    {
        return _heap.empty() ? _inline.data() : _heap.data();
    }
    size_t size() const { return _size; }
    operator ArrayRef<T>() const { return {data(), _size}; }

  private:
    std::array<T, N> _inline{};
    std::vector<T> _heap; ///< every element, once there are more than N
    size_t _size = 0;
};

/** One operand slot of an operation, linked into its value's use list. */
struct OpOperand {
    ValueImpl *value = nullptr;
    Operation *owner = nullptr;
    OpOperand *prevUse = nullptr;
    OpOperand *nextUse = nullptr;

    /** Position of this slot among its owner's operands. */
    unsigned index() const;
};

/** Storage behind a Value handle. Addresses are stable after creation. */
struct ValueImpl {
    Type type;
    Operation *defOp = nullptr; ///< defining op, or null for block args
    Block *ownerBlock = nullptr; ///< owning block for block args
    unsigned index = 0;          ///< result index or argument index

    /** Dense value-numbering scratch used by interpreting consumers
     *  (the simulation engine): @ref interpScope identifies the
     *  numbering scope (an interpreted block tree), @ref interpSlot the
     *  value's slot within that scope's environment vector. Assigned at
     *  region entry by the consumer; 0/0 means "not yet numbered". */
    uint32_t interpScope = 0;
    uint32_t interpSlot = 0;

    OpOperand *firstUse = nullptr; ///< use list head (oldest use)
    OpOperand *lastUse = nullptr;  ///< use list tail (newest use)

    /** Link @p use at the tail of this value's use list. */
    void
    attach(OpOperand *use)
    {
        use->value = this;
        use->nextUse = nullptr;
        use->prevUse = lastUse;
        (lastUse ? lastUse->nextUse : firstUse) = use;
        lastUse = use;
    }

    /** Unlink @p use (which must be on this value's list). */
    void
    detach(OpOperand *use)
    {
        (use->prevUse ? use->prevUse->nextUse : firstUse) = use->nextUse;
        (use->nextUse ? use->nextUse->prevUse : lastUse) = use->prevUse;
        use->value = nullptr;
        use->prevUse = use->nextUse = nullptr;
    }
};

/** A use of a value: the user op and the operand index it reads at. */
using Use = std::pair<Operation *, unsigned>;

/** A value's use list, oldest use first. Do not modify the list while
 *  iterating it; take toVector() first. */
class UseRange {
  public:
    class iterator {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Use;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Use;

        iterator() = default;
        explicit iterator(const OpOperand *u) : _u(u) {}
        Use operator*() const { return {_u->owner, _u->index()}; }
        iterator &
        operator++()
        {
            _u = _u->nextUse;
            return *this;
        }
        bool operator==(const iterator &o) const { return _u == o._u; }
        bool operator!=(const iterator &o) const { return _u != o._u; }

      private:
        const OpOperand *_u = nullptr;
    };

    explicit UseRange(const OpOperand *first) : _first(first) {}
    iterator begin() const { return iterator(_first); }
    iterator end() const { return iterator(); }
    bool empty() const { return _first == nullptr; }
    size_t
    size() const
    {
        size_t n = 0;
        for (const OpOperand *u = _first; u; u = u->nextUse)
            ++n;
        return n;
    }
    /** A copy to iterate while the list itself is being edited. */
    std::vector<Use> toVector() const { return {begin(), end()}; }

  private:
    const OpOperand *_first;
};

/** A lightweight SSA value handle. */
class Value {
  public:
    Value() = default;
    explicit Value(ValueImpl *impl) : _impl(impl) {}

    explicit operator bool() const { return _impl != nullptr; }
    bool operator==(const Value &o) const { return _impl == o._impl; }
    bool operator!=(const Value &o) const { return _impl != o._impl; }
    bool operator<(const Value &o) const { return _impl < o._impl; }

    Type type() const { return _impl->type; }
    /** Retype this value (an IR mutation, see Context::irGeneration). */
    void setType(Type t) const;

    /** Defining operation, or nullptr for a block argument. */
    Operation *definingOp() const { return _impl->defOp; }
    /** Owning block for block arguments, else nullptr. */
    Block *ownerBlock() const { return _impl->ownerBlock; }
    bool isBlockArg() const { return _impl->ownerBlock != nullptr; }
    unsigned index() const { return _impl->index; }

    /** (user op, operand index) pairs, in the order they were attached. */
    UseRange uses() const { return UseRange(_impl->firstUse); }
    bool hasUses() const { return _impl->firstUse != nullptr; }
    size_t numUses() const { return uses().size(); }

    /** Redirect every use of this value to @p other. */
    void replaceAllUsesWith(Value other) const;

    ValueImpl *impl() const { return _impl; }

  private:
    ValueImpl *_impl = nullptr;
};

using TypeRange = ArrayRef<Type>;
using ValueRange = ArrayRef<Value>;

} // namespace ir
} // namespace eq

#endif // EQ_IR_VALUE_HH
