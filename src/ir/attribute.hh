/**
 * @file
 * Immutable attributes attached to operations.
 *
 * An Attribute is a small value type compared structurally. Unit, bool,
 * int, float and type attributes live inline in the handle, and so does
 * a string (in a std::string, so a name like "PE_3_4" never touches the
 * heap). Only array and i64-array attributes keep their payload in
 * shared immutable storage. Attributes are not uniqued in the Context,
 * which keeps the factories context-free.
 */

#ifndef EQ_IR_ATTRIBUTE_HH
#define EQ_IR_ATTRIBUTE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
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

/** Shared payload of the array and i64-array kinds. */
struct AttrStorage {
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
    std::string _str;                         ///< String
    std::shared_ptr<const AttrStorage> _heap; ///< Array/I64Array
};

/** One named attribute. */
using NamedAttr = std::pair<std::string, Attribute>;

/** A read-only view of named attributes in order: an op's attributes
 *  (Operation::attrs) or an AttrDict's. */
class AttrView {
  public:
    AttrView() = default;
    AttrView(const NamedAttr *first, size_t n) : _first(first), _n(n) {}

    /** The attribute named @p name without copying it; null when
     *  absent. */
    const Attribute *lookup(std::string_view name) const;
    /** Look up an attribute; returns a null handle when absent. */
    Attribute
    get(std::string_view name) const
    {
        const Attribute *a = lookup(name);
        return a ? *a : Attribute();
    }
    bool contains(std::string_view name) const { return lookup(name); }

    bool empty() const { return _n == 0; }
    size_t size() const { return _n; }
    const NamedAttr *begin() const { return _first; }
    const NamedAttr *end() const { return _first + _n; }

  private:
    const NamedAttr *_first = nullptr;
    size_t _n = 0;
};

/**
 * An ordered (deterministically printed) name->attribute dictionary,
 * used to collect attributes for Operation::create, which copies them
 * into the op. Up to kInline entries live inline, so building an op's
 * attributes never touches the heap; a fifth moves them all to a
 * vector.
 */
class AttrDict {
  public:
    using Entry = NamedAttr;
    static constexpr unsigned kInline = 4;

    AttrDict() = default;
    /** A copy of @p attrs. */
    explicit AttrDict(AttrView attrs);

    AttrView
    view() const
    {
        return _more.empty() ? AttrView(_inline.data(), _n)
                             : AttrView(_more.data(), _more.size());
    }
    operator AttrView() const { return view(); }

    Attribute get(std::string_view name) const { return view().get(name); }
    const Attribute *
    lookup(std::string_view name) const
    {
        return view().lookup(name);
    }
    /** Insert or overwrite. */
    void set(std::string_view name, Attribute attr);
    /** Remove if present. */
    void erase(std::string_view name);
    bool contains(std::string_view name) const
    {
        return view().contains(name);
    }

    bool empty() const { return size() == 0; }
    size_t size() const { return view().size(); }
    const Entry *begin() const { return view().begin(); }
    const Entry *end() const { return view().end(); }

  private:
    /** Entries [0, _n) of _inline while _more is empty; otherwise every
     *  entry is in _more. */
    std::array<Entry, kInline> _inline;
    unsigned _n = 0;
    std::vector<Entry> _more;
};

} // namespace ir
} // namespace eq

#endif // EQ_IR_ATTRIBUTE_HH
