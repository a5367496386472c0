/**
 * @file
 * Value-semantic, context-interned types for the IR kernel.
 *
 * Types are lightweight handles onto storage owned (and uniqued) by the
 * Context, mirroring MLIR's design: two structurally equal types compare
 * equal by pointer.
 */

#ifndef EQ_IR_TYPE_HH
#define EQ_IR_TYPE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace eq {
namespace ir {

class Context;

/** Discriminator for every type the dialects in this project need. */
enum class TypeKind : uint8_t {
    None,       ///< absence of a value
    Index,      ///< loop induction variables, sizes
    Integer,    ///< iN
    Float,      ///< f32 / f64
    Tensor,     ///< host-level shaped data (Linalg/Affine stages)
    MemRef,     ///< host-level buffer handle (Affine stage)
    Event,      ///< an EQueue event / dependency token
    Proc,       ///< a processor component handle
    Mem,        ///< a memory component handle
    Dma,        ///< a DMA component handle
    Comp,       ///< a composite component handle
    Connection, ///< a bandwidth-constrained connection handle
    Stream,     ///< a FIFO stream endpoint handle
    Buffer,     ///< an allocation placed on a device memory
    Any,        ///< wildcard used by equeue.op results
};

/**
 * Uniqued payload of a Type. Width is the integer/float bit width; shape
 * and elemBits describe Tensor/MemRef/Buffer types.
 */
struct TypeStorage {
    TypeKind kind = TypeKind::None;
    unsigned width = 0;
    std::vector<int64_t> shape;
    unsigned elemBits = 0;
};

/**
 * A handle to an interned TypeStorage. Null handles are allowed and
 * convert to false.
 */
class Type {
  public:
    Type() = default;
    explicit Type(const TypeStorage *impl) : _impl(impl) {}

    explicit operator bool() const { return _impl != nullptr; }
    bool operator==(const Type &o) const { return _impl == o._impl; }
    bool operator!=(const Type &o) const { return _impl != o._impl; }

    TypeKind
    kind() const
    {
        if (!_impl)
            nullKind();
        return _impl->kind;
    }

    bool isNone() const { return kind() == TypeKind::None; }
    bool isIndex() const { return kind() == TypeKind::Index; }
    bool isInteger() const { return kind() == TypeKind::Integer; }
    bool isFloat() const { return kind() == TypeKind::Float; }
    bool isTensor() const { return kind() == TypeKind::Tensor; }
    bool isMemRef() const { return kind() == TypeKind::MemRef; }
    bool isEvent() const { return kind() == TypeKind::Event; }
    bool isBuffer() const { return kind() == TypeKind::Buffer; }
    bool isComponent() const;
    bool isShaped() const
    {
        return isTensor() || isMemRef() || isBuffer();
    }

    /** Integer / float bit width (0 for other kinds). */
    unsigned width() const;
    /** Shape of a shaped type (empty otherwise). */
    const std::vector<int64_t> &shape() const;
    /** Element width in bits for shaped types. */
    unsigned elemBits() const;
    /** Product of the shape dims (1 for rank-0). */
    int64_t numElements() const;
    /** Total byte footprint of a shaped type. */
    int64_t sizeBytes() const;

    /** Render in textual IR syntax (e.g. "i32", "!equeue.event"). */
    std::string str() const;

    const TypeStorage *impl() const { return _impl; }

  private:
    [[noreturn, gnu::cold]] void nullKind() const;

    const TypeStorage *_impl = nullptr;
};

} // namespace ir
} // namespace eq

#endif // EQ_IR_TYPE_HH
