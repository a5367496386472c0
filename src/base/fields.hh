/**
 * @file
 * Field tables: a config struct lists each of its fields once — wire
 * name, member pointer, and the values it accepts — and every consumer
 * folds over that one list instead of naming the fields again.
 *
 * A struct S opts in with a `static constexpr auto fields()` returning
 * a std::tuple of the descriptors below, in member declaration order.
 * fieldsEqual() and fieldsHash() give S its operator== and hash();
 * serve/models.cc derives the JSON codec and the sweep axes from the
 * same tuple, so the declaration order is also the wire order.
 */

#ifndef EQ_BASE_FIELDS_HH
#define EQ_BASE_FIELDS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "base/hash.hh"

namespace eq {

/** An integer member accepted in [min, max]. */
template <class S, class T>
struct IntField {
    const char *name;
    T S::*member;
    int64_t min;
    int64_t max;
};

/** An enumerated member: an enum whose value v is names[v], or a
 *  string that must equal one of names. */
template <class S, class T, size_t N>
struct EnumField {
    const char *name;
    T S::*member;
    std::array<const char *, N> names;
};

/** A list of nested structs that carry their own field table. */
template <class S, class E>
struct ListField {
    const char *name;
    std::vector<E> S::*member;
    const char *label;  ///< names one entry in error messages
    size_t minEntries;
};

/** An integer field taking [@p min, the member type's maximum]. */
template <class S, class T>
constexpr IntField<S, T>
intField(const char *name, T S::*member, int64_t min)
{
    return {name, member, min, int64_t(std::numeric_limits<T>::max())};
}

template <class S, class T, size_t N>
constexpr EnumField<S, T, N>
enumField(const char *name, T S::*member,
          const std::array<const char *, N> &names)
{
    return {name, member, names};
}

template <class S, class E>
constexpr ListField<S, E>
listField(const char *name, std::vector<E> S::*member, const char *label,
          size_t min_entries)
{
    return {name, member, label, min_entries};
}

/** True for the member type of a ListField. */
template <class T>
constexpr bool kIsList = false;
template <class E>
constexpr bool kIsList<std::vector<E>> = true;

/** Call @p f on every descriptor of @p table, in order. */
template <class Table, class F>
void
forEachField(const Table &table, F &&f)
{
    std::apply([&](const auto &...field) { (f(field), ...); }, table);
}

/** Memberwise equality over S's field table. */
template <class S>
bool
fieldsEqual(const S &a, const S &b)
{
    return std::apply(
        [&](const auto &...field) {
            return ((a.*(field.member) == b.*(field.member)) && ...);
        },
        S::fields());
}

/** FNV-1a over every field of @p s in table order, folded into
 *  @p h; stable across runs, so caches may key on it. Equal structs
 *  hash equal; the converse is NOT guaranteed. */
template <class S>
uint64_t
fieldsHash(const S &s, uint64_t h = kFnvOffset)
{
    forEachField(S::fields(), [&](const auto &field) {
        const auto &v = s.*(field.member);
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
            h = fnv1aBytes(h, v);
        } else if constexpr (kIsList<T>) {
            for (const auto &entry : v)
                h = fieldsHash(entry, h);
        } else {
            h = fnv1a(h, uint64_t(v));
        }
    });
    return h;
}

} // namespace eq

#endif // EQ_BASE_FIELDS_HH
