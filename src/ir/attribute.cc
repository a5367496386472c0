#include "ir/attribute.hh"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <sstream>

#include "base/logging.hh"
#include "base/stringutil.hh"

namespace eq {
namespace ir {

Attribute
Attribute::unit()
{
    return Attribute(AttrKind::Unit);
}

Attribute
Attribute::boolean(bool v)
{
    Attribute a(AttrKind::Bool);
    a._scalar.b = v;
    return a;
}

Attribute
Attribute::integer(int64_t v)
{
    Attribute a(AttrKind::Int);
    a._scalar.i = v;
    return a;
}

Attribute
Attribute::floating(double v)
{
    Attribute a(AttrKind::Float);
    a._scalar.f = v;
    return a;
}

Attribute
Attribute::string(std::string v)
{
    Attribute a(AttrKind::String);
    a._str = std::move(v);
    return a;
}

Attribute
Attribute::typeRef(Type t)
{
    Attribute a(AttrKind::TypeRef);
    a._scalar.t = t.impl();
    return a;
}

Attribute
Attribute::array(std::vector<Attribute> elems)
{
    Attribute a(AttrKind::Array);
    a._heap = std::make_shared<const AttrStorage>(
        AttrStorage{std::move(elems), {}});
    return a;
}

Attribute
Attribute::i64Array(std::vector<int64_t> elems)
{
    Attribute a(AttrKind::I64Array);
    a._heap = std::make_shared<const AttrStorage>(
        AttrStorage{{}, std::move(elems)});
    return a;
}

bool
Attribute::operator==(const Attribute &o) const
{
    if (_set != o._set)
        return false;
    if (!_set)
        return true;
    if (_kind != o._kind)
        return false;
    switch (_kind) {
      case AttrKind::Unit:
        return true;
      case AttrKind::Bool:
        return _scalar.b == o._scalar.b;
      case AttrKind::Int:
        return _scalar.i == o._scalar.i;
      case AttrKind::Float:
        return _scalar.f == o._scalar.f;
      case AttrKind::TypeRef:
        return _scalar.t == o._scalar.t;
      case AttrKind::String:
        return _str == o._str;
      case AttrKind::Array:
        return _heap == o._heap || _heap->arr == o._heap->arr;
      case AttrKind::I64Array:
        return _heap == o._heap || _heap->ints == o._heap->ints;
    }
    return false;
}

AttrKind
Attribute::kind() const
{
    eq_assert(_set, "null attribute dereference");
    return _kind;
}

bool
Attribute::asBool() const
{
    eq_assert(_set && _kind == AttrKind::Bool, "not a bool attr");
    return _scalar.b;
}

int64_t
Attribute::asInt() const
{
    eq_assert(_set && _kind == AttrKind::Int, "not an int attr");
    return _scalar.i;
}

double
Attribute::asFloat() const
{
    eq_assert(_set && _kind == AttrKind::Float, "not a float attr");
    return _scalar.f;
}

const std::string &
Attribute::asString() const
{
    eq_assert(_set && _kind == AttrKind::String, "not a string attr");
    return _str;
}

Type
Attribute::asType() const
{
    eq_assert(_set && _kind == AttrKind::TypeRef, "not a type attr");
    return Type(_scalar.t);
}

const std::vector<Attribute> &
Attribute::asArray() const
{
    eq_assert(_set && _kind == AttrKind::Array, "not an array attr");
    return _heap->arr;
}

const std::vector<int64_t> &
Attribute::asI64Array() const
{
    eq_assert(_set && _kind == AttrKind::I64Array,
              "not an i64 array attr");
    return _heap->ints;
}

std::string
Attribute::str() const
{
    if (!_set)
        return "<<null>>";
    std::ostringstream os;
    switch (_kind) {
      case AttrKind::Unit:
        os << "unit";
        break;
      case AttrKind::Bool:
        os << (_scalar.b ? "true" : "false");
        break;
      case AttrKind::Int:
        os << _scalar.i;
        break;
      case AttrKind::Float: {
        // The shortest form that reads back as exactly this double.
        char buf[32];
        auto res = std::to_chars(buf, buf + sizeof(buf), _scalar.f);
        std::string_view body(buf, static_cast<size_t>(res.ptr - buf));
        os << body;
        // Mark as float for the parser when it would read as an int.
        if (body.find_first_of(".e") == std::string_view::npos)
            os << ".0";
        break;
      }
      case AttrKind::String:
        os << '"' << jsonEscape(_str) << '"';
        break;
      case AttrKind::TypeRef:
        os << asType().str();
        break;
      case AttrKind::Array: {
        os << '[';
        for (size_t i = 0; i < _heap->arr.size(); ++i) {
            if (i)
                os << ", ";
            os << _heap->arr[i].str();
        }
        os << ']';
        break;
      }
      case AttrKind::I64Array: {
        os << "dense[";
        for (size_t i = 0; i < _heap->ints.size(); ++i) {
            if (i)
                os << ", ";
            os << _heap->ints[i];
        }
        os << ']';
        break;
      }
    }
    return os.str();
}

const Attribute *
AttrView::lookup(std::string_view name) const
{
    for (const NamedAttr &e : *this)
        if (e.first == name)
            return &e.second;
    return nullptr;
}

AttrDict::AttrDict(AttrView attrs)
{
    if (attrs.size() > kInline) {
        _more.assign(attrs.begin(), attrs.end());
        return;
    }
    std::copy(attrs.begin(), attrs.end(), _inline.begin());
    _n = attrs.size();
}

void
AttrDict::set(std::string_view name, Attribute attr)
{
    if (const Attribute *a = lookup(name)) {
        *const_cast<Attribute *>(a) = std::move(attr);
        return;
    }
    if (_more.empty() && _n < kInline) {
        Entry &e = _inline[_n++];
        e.first = name;
        e.second = std::move(attr);
        return;
    }
    if (_more.empty()) {
        _more.reserve(2 * kInline);
        std::move(_inline.begin(), _inline.begin() + _n,
                  std::back_inserter(_more));
        _inline = {};
        _n = 0;
    }
    _more.emplace_back(name, std::move(attr));
}

void
AttrDict::erase(std::string_view name)
{
    if (!_more.empty()) {
        _more.erase(std::remove_if(_more.begin(), _more.end(),
                                   [&](const Entry &e) {
                                       return e.first == name;
                                   }),
                    _more.end());
        return;
    }
    for (unsigned i = 0; i < _n; ++i) {
        if (_inline[i].first != name)
            continue;
        std::move(_inline.begin() + i + 1, _inline.begin() + _n,
                  _inline.begin() + i);
        _inline[--_n] = Entry();
        return;
    }
}

} // namespace ir
} // namespace eq
