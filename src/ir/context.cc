#include "ir/context.hh"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "base/logging.hh"

namespace eq {
namespace ir {

namespace {

/** Source of Context::serial(); process-wide so no two contexts, live
 *  or destroyed, ever share one. */
std::atomic<uint64_t> g_nextContextSerial{1};

} // namespace

Context::Context()
    : _serial(g_nextContextSerial.fetch_add(1, std::memory_order_relaxed))
{
}

Context::~Context() = default;

// ---------------------------------------------------------------------------
// Operation-name interning

OpId
Context::internOpName(std::string_view name)
{
    // Dialect builders pass the same literal on every create, so a
    // cache keyed by the text's address skips hashing; comparing the
    // text confirms a hit, so a reused buffer cannot alias another name.
    NameCacheSlot &slot =
        _nameCache[(reinterpret_cast<uintptr_t>(name.data()) >> 3) %
                   _nameCache.size()];
    if (slot.data && slot.data == name.data() &&
        *_opNamePool[slot.raw] == name)
        return OpId(slot.raw);
    uint32_t raw;
    auto it = _opNameIds.find(name);
    if (it != _opNameIds.end()) {
        raw = it->second;
    } else {
        raw = static_cast<uint32_t>(_opNamePool.size());
        eq_assert(raw != OpId::kInvalidRaw, "op name pool exhausted");
        _opNamePool.push_back(std::make_unique<std::string>(name));
        _opInfos.emplace_back();
        _opNameIds.emplace(std::string_view(*_opNamePool.back()), raw);
    }
    slot = {name.data(), raw};
    return OpId(raw);
}

OpId
Context::lookupOpId(std::string_view name) const
{
    auto it = _opNameIds.find(name);
    return it == _opNameIds.end() ? OpId() : OpId(it->second);
}

const std::string &
Context::opName(OpId id) const
{
    eq_assert(id.valid() && id.raw() < _opNamePool.size(),
              "opName of unknown OpId");
    return *_opNamePool[id.raw()];
}

OpId
Context::cachedOpId(unsigned slot, const char *name)
{
    if (slot >= _cachedOpIds.size())
        _cachedOpIds.resize(slot + 1);
    OpId &id = _cachedOpIds[slot];
    if (!id.valid())
        id = internOpName(name);
    return id;
}

// ---------------------------------------------------------------------------
// OpIdCache

namespace {
std::atomic<unsigned> g_nextOpIdCacheSlot{0};
} // namespace

OpIdCache::OpIdCache(const char *name)
    : _slot(g_nextOpIdCacheSlot++), _name(name)
{
}

OpId
OpIdCache::get(Context &ctx) const
{
    return ctx.cachedOpId(_slot, _name);
}

Type
Context::intern(TypeKind kind, unsigned width, ArrayRef<int64_t> shape,
                unsigned elem_bits)
{
    // Compare in place: a hit (the common case) copies no shape.
    for (const auto &existing : _typeStorage) {
        if (existing->kind == kind && existing->width == width &&
            existing->elemBits == elem_bits &&
            std::equal(existing->shape.begin(), existing->shape.end(),
                       shape.begin(), shape.end()))
            return Type(existing.get());
    }
    auto st = std::make_unique<TypeStorage>();
    st->kind = kind;
    st->width = width;
    st->shape.assign(shape.begin(), shape.end());
    st->elemBits = elem_bits;
    _typeStorage.push_back(std::move(st));
    return Type(_typeStorage.back().get());
}

Type
Context::noneType()
{
    return intern(TypeKind::None);
}

Type
Context::indexType()
{
    return intern(TypeKind::Index);
}

Type
Context::intType(unsigned width)
{
    return intern(TypeKind::Integer, width);
}

Type
Context::floatType(unsigned width)
{
    return intern(TypeKind::Float, width);
}

Type
Context::tensorType(ArrayRef<int64_t> shape, unsigned elem_bits)
{
    return intern(TypeKind::Tensor, 0, shape, elem_bits);
}

Type
Context::memrefType(ArrayRef<int64_t> shape, unsigned elem_bits)
{
    return intern(TypeKind::MemRef, 0, shape, elem_bits);
}

Type
Context::eventType()
{
    return intern(TypeKind::Event);
}

Type
Context::procType()
{
    return intern(TypeKind::Proc);
}

Type
Context::memType()
{
    return intern(TypeKind::Mem);
}

Type
Context::dmaType()
{
    return intern(TypeKind::Dma);
}

Type
Context::compType()
{
    return intern(TypeKind::Comp);
}

Type
Context::connectionType()
{
    return intern(TypeKind::Connection);
}

Type
Context::streamType()
{
    return intern(TypeKind::Stream);
}

Type
Context::bufferType(ArrayRef<int64_t> shape, unsigned elem_bits)
{
    return intern(TypeKind::Buffer, 0, shape, elem_bits);
}

Type
Context::anyType()
{
    return intern(TypeKind::Any);
}

void
Context::registerOp(OpInfo info)
{
    eq_assert(info.signature, "op '", info.name, "' has no signature");
    OpId id = internOpName(info.name);
    _opInfos[id.raw()] = std::move(info);
    noteIrChange();
}

const OpInfo *
Context::lookupOp(std::string_view name) const
{
    return lookupOp(lookupOpId(name));
}

const OpInfo *
Context::lookupOp(OpId id) const
{
    if (!id.valid() || id.raw() >= _opInfos.size())
        return nullptr;
    const OpInfo &info = _opInfos[id.raw()];
    return info.name.empty() ? nullptr : &info;
}

std::vector<std::string>
Context::registeredOpNames() const
{
    std::vector<std::string> names;
    names.reserve(_opInfos.size());
    for (const OpInfo &info : _opInfos)
        if (!info.name.empty())
            names.push_back(info.name);
    std::sort(names.begin(), names.end());
    return names;
}

// ---------------------------------------------------------------------------
// Type member functions that need no Context access.

void
Type::nullKind() const
{
    eq_assert(_impl, "null type dereference");
    std::abort();
}

bool
Type::isComponent() const
{
    switch (kind()) {
      case TypeKind::Proc:
      case TypeKind::Mem:
      case TypeKind::Dma:
      case TypeKind::Comp:
        return true;
      default:
        return false;
    }
}

unsigned
Type::width() const
{
    return _impl ? _impl->width : 0;
}

const std::vector<int64_t> &
Type::shape() const
{
    static const std::vector<int64_t> empty;
    return _impl ? _impl->shape : empty;
}

unsigned
Type::elemBits() const
{
    return _impl ? _impl->elemBits : 0;
}

int64_t
Type::numElements() const
{
    int64_t n = 1;
    for (int64_t d : shape())
        n *= d;
    return n;
}

int64_t
Type::sizeBytes() const
{
    return numElements() * ((elemBits() + 7) / 8);
}

std::string
Type::str() const
{
    if (!_impl)
        return "<<null-type>>";
    std::ostringstream os;
    auto printShaped = [&](const char *name) {
        os << name << '<';
        for (size_t i = 0; i < _impl->shape.size(); ++i) {
            if (i)
                os << 'x';
            os << _impl->shape[i];
        }
        if (!_impl->shape.empty())
            os << 'x';
        os << 'i' << _impl->elemBits << '>';
    };
    switch (_impl->kind) {
      case TypeKind::None:
        os << "none";
        break;
      case TypeKind::Index:
        os << "index";
        break;
      case TypeKind::Integer:
        os << 'i' << _impl->width;
        break;
      case TypeKind::Float:
        os << 'f' << _impl->width;
        break;
      case TypeKind::Tensor:
        printShaped("tensor");
        break;
      case TypeKind::MemRef:
        printShaped("memref");
        break;
      case TypeKind::Event:
        os << "!equeue.event";
        break;
      case TypeKind::Proc:
        os << "!equeue.proc";
        break;
      case TypeKind::Mem:
        os << "!equeue.mem";
        break;
      case TypeKind::Dma:
        os << "!equeue.dma";
        break;
      case TypeKind::Comp:
        os << "!equeue.comp";
        break;
      case TypeKind::Connection:
        os << "!equeue.conn";
        break;
      case TypeKind::Stream:
        os << "!equeue.stream";
        break;
      case TypeKind::Buffer:
        printShaped("!equeue.buffer");
        break;
      case TypeKind::Any:
        os << "!equeue.any";
        break;
    }
    return os.str();
}

} // namespace ir
} // namespace eq
