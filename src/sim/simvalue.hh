/**
 * @file
 * Runtime values manipulated by the simulation engine's interpreter.
 *
 * The engine executes programs functionally (an `addi` really adds), so
 * values carry data: scalars, tensors, and handles onto simulation
 * objects (components, buffers, connections, streams, events).
 */

#ifndef EQ_SIM_SIMVALUE_HH
#define EQ_SIM_SIMVALUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace eq {
namespace sim {

class Component;
class Connection;
class StreamFifo;
struct BufferObj;

class TensorPtr;

/** Dense integer tensor (element width tracked for byte accounting). */
struct Tensor {
    std::vector<int64_t> shape;
    std::vector<int64_t> data;
    unsigned elemBits = 32;

    int64_t
    numElements() const
    {
        int64_t n = 1;
        for (int64_t d : shape)
            n *= d;
        return n;
    }
    int64_t
    sizeBytes() const
    {
        return numElements() * ((elemBits + 7) / 8);
    }

    static TensorPtr zeros(std::vector<int64_t> shape, unsigned elem_bits);

    /** Row-major flattened offset of a multi-dim index. */
    int64_t
    offset(const int64_t *idx, size_t rank) const
    {
        eq_assert(rank == shape.size(), "tensor rank mismatch");
        int64_t off = 0;
        for (size_t i = 0; i < rank; ++i) {
            eq_assert(idx[i] >= 0 && idx[i] < shape[i],
                      "tensor index out of bounds");
            off = off * shape[i] + idx[i];
        }
        return off;
    }
    int64_t
    offset(const std::vector<int64_t> &idx) const
    {
        return offset(idx.data(), idx.size());
    }

  private:
    friend class TensorPtr;
    /** Live TensorPtr and SimValue holders. Not atomic: a Simulator's
     *  values never cross threads. */
    uint32_t _refs = 0;
};

/**
 * Intrusive, non-atomic reference to a heap Tensor; the tensor is freed
 * when its last holder (a TensorPtr or a SimValue) drops it.
 */
class TensorPtr {
  public:
    TensorPtr() = default;
    /** A new heap tensor with @p t's contents. */
    static TensorPtr
    make(Tensor t)
    {
        Tensor *p = new Tensor(std::move(t));
        p->_refs = 0;
        return TensorPtr(p);
    }
    TensorPtr(const TensorPtr &o) noexcept : TensorPtr(o._p) {}
    TensorPtr(TensorPtr &&o) noexcept : _p(o._p) { o._p = nullptr; }
    TensorPtr &
    operator=(TensorPtr o) noexcept
    {
        std::swap(_p, o._p);
        return *this;
    }
    ~TensorPtr() { unref(_p); }

    Tensor *get() const { return _p; }
    Tensor *operator->() const { return _p; }
    Tensor &operator*() const { return *_p; }
    explicit operator bool() const { return _p != nullptr; }
    /** True when this is the tensor's only holder. */
    bool unique() const { return _p && _p->_refs == 1; }

  private:
    friend class SimValue;
    /** Adopt @p t (taking one reference). */
    explicit TensorPtr(Tensor *t) noexcept : _p(t)
    {
        if (_p)
            ref(_p);
    }
    static void ref(Tensor *t) { ++t->_refs; }
    static void
    unref(Tensor *t)
    {
        if (t && --t->_refs == 0)
            delete t;
    }

    Tensor *_p = nullptr;
};

inline TensorPtr
Tensor::zeros(std::vector<int64_t> shape, unsigned elem_bits)
{
    Tensor t;
    t.shape = std::move(shape);
    t.elemBits = elem_bits;
    t.data.assign(t.numElements(), 0);
    return TensorPtr::make(std::move(t));
}

/** Id of an Event managed by the engine. */
using EventId = uint64_t;
constexpr EventId kNoEvent = ~0ull;

/**
 * A runtime value: scalar, tensor, or simulation-object handle. Two
 * words: one 8-byte payload and a 1-byte kind, so copying a value that
 * is not a tensor is a plain copy, and a tensor copy bumps its
 * intrusive count. A moved-from value is None.
 */
class SimValue {
  public:
    SimValue() = default;
    SimValue(const SimValue &o) noexcept : _u(o._u), _kind(o._kind)
    {
        if (_kind == Kind::Tensor)
            TensorPtr::ref(_u.t);
    }
    SimValue(SimValue &&o) noexcept : _u(o._u), _kind(o._kind)
    {
        o._kind = Kind::None;
    }
    SimValue &
    operator=(const SimValue &o) noexcept
    {
        // Count first, so self-assignment never frees the tensor.
        if (o._kind == Kind::Tensor)
            TensorPtr::ref(o._u.t);
        drop();
        _u = o._u;
        _kind = o._kind;
        return *this;
    }
    SimValue &
    operator=(SimValue &&o) noexcept
    {
        if (this != &o) {
            drop();
            _u = o._u;
            _kind = o._kind;
            o._kind = Kind::None;
        }
        return *this;
    }
    ~SimValue() { drop(); }

    static SimValue
    ofInt(int64_t v)
    {
        SimValue s(Kind::Int);
        s._u.i = v;
        return s;
    }
    static SimValue
    ofFloat(double v)
    {
        SimValue s(Kind::Float);
        s._u.f = v;
        return s;
    }
    static SimValue
    ofTensor(TensorPtr t)
    {
        SimValue s;
        if (t) {
            s._kind = Kind::Tensor;
            s._u.t = t._p;
            t._p = nullptr;
        }
        return s;
    }
    static SimValue
    ofEvent(EventId e)
    {
        SimValue s(Kind::Event);
        s._u.e = e;
        return s;
    }
    static SimValue
    ofComponent(Component *c)
    {
        SimValue s(Kind::Component);
        s._u.c = c;
        return s;
    }
    static SimValue
    ofBuffer(BufferObj *b)
    {
        SimValue s(Kind::Buffer);
        s._u.b = b;
        return s;
    }
    static SimValue
    ofConnection(Connection *c)
    {
        SimValue s(Kind::Connection);
        s._u.conn = c;
        return s;
    }
    static SimValue
    ofStream(StreamFifo *f)
    {
        SimValue s(Kind::Stream);
        s._u.s = f;
        return s;
    }

    bool isNone() const { return _kind == Kind::None; }
    bool isInt() const { return _kind == Kind::Int; }
    bool isFloat() const { return _kind == Kind::Float; }
    bool isTensor() const { return _kind == Kind::Tensor; }
    bool isEvent() const { return _kind == Kind::Event; }
    bool isComponent() const { return _kind == Kind::Component; }
    bool isBuffer() const { return _kind == Kind::Buffer; }
    bool isConnection() const { return _kind == Kind::Connection; }
    bool isStream() const { return _kind == Kind::Stream; }

    int64_t
    asInt() const
    {
        if (isFloat())
            return static_cast<int64_t>(_u.f);
        eq_assert(isInt(), "SimValue is not an int");
        return _u.i;
    }
    double
    asFloat() const
    {
        if (isInt())
            return static_cast<double>(_u.i);
        eq_assert(isFloat(), "SimValue is not a float");
        return _u.f;
    }
    /** The held tensor (owned by this value). */
    Tensor *
    asTensor() const
    {
        eq_assert(isTensor(), "SimValue is not a tensor");
        return _u.t;
    }
    EventId
    asEvent() const
    {
        eq_assert(isEvent(), "SimValue is not an event");
        return _u.e;
    }
    Component *
    asComponent() const
    {
        eq_assert(isComponent(), "SimValue is not a component");
        return _u.c;
    }
    BufferObj *
    asBuffer() const
    {
        eq_assert(isBuffer(), "SimValue is not a buffer");
        return _u.b;
    }
    Connection *
    asConnection() const
    {
        eq_assert(isConnection(), "SimValue is not a connection");
        return _u.conn;
    }
    StreamFifo *
    asStream() const
    {
        eq_assert(isStream(), "SimValue is not a stream");
        return _u.s;
    }

    /** Byte size of the payload (tensors and scalars). */
    int64_t
    sizeBytes() const
    {
        if (isTensor())
            return _u.t->sizeBytes();
        if (isInt() || isFloat())
            return 4;
        return 0;
    }

  private:
    enum class Kind : uint8_t {
        None,
        Int,
        Float,
        Tensor,
        Event,
        Component,
        Buffer,
        Connection,
        Stream,
    };
    explicit SimValue(Kind k) : _kind(k) {}

    void
    drop()
    {
        if (_kind == Kind::Tensor)
            TensorPtr::unref(_u.t);
    }

    /** The member @ref _kind names is the live one (none for None). */
    union Payload {
        int64_t i = 0;
        double f;
        Tensor *t;
        EventId e;
        Component *c;
        BufferObj *b;
        Connection *conn;
        StreamFifo *s;
    } _u;
    Kind _kind = Kind::None;
};
static_assert(sizeof(SimValue) == 16, "a SimValue is two words");

} // namespace sim
} // namespace eq

#endif // EQ_SIM_SIMVALUE_HH
