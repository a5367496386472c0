/**
 * @file
 * Immutable attributes attached to operations.
 *
 * An Attribute is a small value type compared structurally. Unit, bool,
 * int, float and type attributes live inline in the handle, so making,
 * copying and dropping one never touches the heap. Only string, array
 * and i64-array attributes keep their payload in shared immutable
 * storage. Attributes are not uniqued in the Context, which keeps the
 * factories context-free.
 */

#ifndef EQ_IR_ATTRIBUTE_HH
#define EQ_IR_ATTRIBUTE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/type.hh"

namespace eq {
namespace ir {

enum class AttrKind : uint8_t {
    Unit,
    Bool,
    Int,
    Float,
    String,
    TypeRef,
    Array,
    I64Array,
};

class Attribute;

/** Shared payload of the string, array and i64-array kinds. */
struct AttrStorage {
    std::string s;
    std::vector<Attribute> arr;
    std::vector<int64_t> ints;
};

/** A structurally compared, immutable attribute handle. */
class Attribute {
  public:
    Attribute() = default;

    static Attribute unit();
    static Attribute boolean(bool v);
    static Attribute integer(int64_t v);
    static Attribute floating(double v);
    static Attribute string(std::string v);
    static Attribute typeRef(Type t);
    static Attribute array(std::vector<Attribute> elems);
    static Attribute i64Array(std::vector<int64_t> elems);

    explicit operator bool() const { return _set; }
    bool operator==(const Attribute &o) const;
    bool operator!=(const Attribute &o) const { return !(*this == o); }

    AttrKind kind() const;
    bool isInt() const { return _set && _kind == AttrKind::Int; }
    bool isString() const { return _set && _kind == AttrKind::String; }

    bool asBool() const;
    int64_t asInt() const;
    double asFloat() const;
    const std::string &asString() const;
    Type asType() const;
    const std::vector<Attribute> &asArray() const;
    const std::vector<int64_t> &asI64Array() const;

    /** Render in textual IR syntax. */
    std::string str() const;

  private:
    explicit Attribute(AttrKind kind) : _kind(kind), _set(true) {}

    AttrKind _kind = AttrKind::Unit;
    bool _set = false;
    union {
        bool b;
        int64_t i;
        double f;
        const TypeStorage *t;
    } _scalar{};
    std::shared_ptr<const AttrStorage> _heap; ///< String/Array/I64Array
};

/**
 * An ordered (deterministically printed) name->attribute dictionary.
 * Most operations carry at most one attribute, so a lone entry lives
 * inline; a second one moves the entries to a vector.
 */
class AttrDict {
  public:
    using Entry = std::pair<std::string, Attribute>;

    /** Look up an attribute; returns a null handle when absent. */
    Attribute get(std::string_view name) const;
    /** The attribute named @p name without copying it; null when
     *  absent. */
    const Attribute *
    lookup(std::string_view name) const
    {
        const Entry *e = find(name);
        return e ? &e->second : nullptr;
    }
    /** Insert or overwrite. */
    void set(std::string_view name, Attribute attr);
    /** Remove if present. */
    void erase(std::string_view name);
    bool contains(std::string_view name) const
    {
        return find(name) != nullptr;
    }

    bool empty() const { return size() == 0; }
    size_t size() const { return _inline ? 1 : _many.size(); }
    const Entry *begin() const { return _inline ? &_one : _many.data(); }
    const Entry *end() const { return begin() + size(); }

  private:
    const Entry *find(std::string_view name) const;

    /** The lone entry lives in _one while _inline holds; otherwise
     *  every entry is in _many. */
    bool _inline = false;
    Entry _one;
    std::vector<Entry> _many;
};

} // namespace ir
} // namespace eq

#endif // EQ_IR_ATTRIBUTE_HH
