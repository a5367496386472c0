#include "ir/signature.hh"

#include "base/logging.hh"
#include "ir/operation.hh"

namespace eq {
namespace ir {

namespace {

/** Room for the sizes of every operand (or result) group. */
using GroupSizes = std::array<int64_t, OpSignature::kMaxGroups>;

/**
 * Split @p total values of @p op among @p n groups, writing each group's
 * size to @p sizes. When no split fits, returns false and, when @p err
 * is given, a diagnostic naming @p what ("operand" or "result").
 */
bool
splitGroups(const ValueGroup *groups, unsigned n, const Operation &op,
            unsigned total, const char *what, GroupSizes &sizes,
            std::string *err)
{
    int64_t fixed = 0;
    const ValueGroup *rest = nullptr;
    for (unsigned g = 0; g < n; ++g) {
        const ValueGroup &group = groups[g];
        sizes[g] = 1;
        if (group.count == GroupCount::Rest) {
            rest = &group;
            continue;
        }
        if (group.count != GroupCount::One) {
            const Attribute *a = op.attrs().lookup(group.attr);
            int64_t v = a && a->isInt() ? a->asInt() : group.dflt;
            sizes[g] = group.count == GroupCount::Optional ? v != 0 : v;
            if ((a && !a->isInt()) || sizes[g] < group.min ||
                sizes[g] > total) {
                if (err)
                    *err = std::string("attribute '") + group.attr +
                           "' must be an integer in range";
                return false;
            }
        }
        fixed += sizes[g];
    }
    int64_t least = fixed + (rest ? rest->min : 0);
    if (rest ? total < least : total != least) {
        if (err)
            *err = std::string("expects ") + (rest ? "at least " : "") +
                   std::to_string(least) + " " + what + "(s), has " +
                   std::to_string(total);
        return false;
    }
    if (rest)
        sizes[rest - groups] = total - fixed;
    return true;
}

/**
 * Split @p total values into groups and check each value's type kind;
 * @p type_at gives the type of value i. On a mismatch, returns false
 * and, when @p Diagnose, writes a diagnostic naming @p what to @p err.
 */
template <bool Diagnose, class TypeAt>
bool
checkGroups(const ValueGroup *groups, unsigned n, bool single,
            const Operation &op, unsigned total, const char *what,
            TypeAt type_at, std::string *err, OperandGroups *bounds)
{
    auto allowed = [&](unsigned i, KindMask mask) {
        Type t = type_at(i);
        if (mask == kAnyKind || (mask & kinds(t.kind())))
            return true;
        if constexpr (Diagnose)
            *err = std::string(what) + " " + std::to_string(i) +
                   " may not be " + t.str();
        return false;
    };
    if (single && total == n) {
        // Value i is group i: most lists need no split.
        for (unsigned i = 0; i < n; ++i)
            if (!allowed(i, groups[i].kinds))
                return false;
        if (bounds)
            for (unsigned g = 0; g <= n; ++g)
                bounds->start[g] = g;
        return true;
    }
    GroupSizes sizes;
    if (!splitGroups(groups, n, op, total, what, sizes,
                     Diagnose ? err : nullptr))
        return false;
    for (unsigned g = 0, i = 0; g < n; ++g) {
        if (bounds)
            bounds->start[g] = i;
        for (unsigned end = i + static_cast<unsigned>(sizes[g]); i < end; ++i)
            if (!allowed(i, groups[g].kinds))
                return false;
    }
    if (bounds)
        bounds->start[n] = total;
    return true;
}

/** checkSignature's checks. Only the @p Diagnose instance builds a
 *  diagnostic (into @p err), so the other builds no string at all. */
template <bool Diagnose>
bool
check(const OpSignature &sig, Operation &op, std::string *err,
      OperandGroups *groups)
{
    if (!checkGroups<Diagnose>(
            sig.operandGroups.data(), sig.numOperandGroups,
            sig.singleOperands, op, static_cast<unsigned>(op.numOperands()),
            "operand", [&](unsigned i) { return op.operand(i).type(); },
            err, groups) ||
        !checkGroups<Diagnose>(
            sig.resultGroups.data(), sig.numResultGroups, sig.singleResults,
            op, static_cast<unsigned>(op.numResults()), "result",
            [&](unsigned i) { return op.result(i).type(); }, err, nullptr))
        return false;
    for (unsigned i = 0; i < sig.numAttrs; ++i) {
        const AttrSpec &spec = sig.attrSpecs[i];
        const Attribute *a = op.attrs().lookup(spec.name);
        if (a ? !(spec.kinds & kinds(a->kind())) : spec.required) {
            if constexpr (Diagnose)
                *err = std::string("attribute '") + spec.name + "' " +
                       (a ? "may not be " + a->str() : "is required");
            return false;
        }
    }
    if (op.numRegions() != sig.numRegions) {
        if constexpr (Diagnose)
            *err = "expects " + std::to_string(sig.numRegions) +
                   " region(s), has " + std::to_string(op.numRegions());
        return false;
    }
    for (unsigned r = 0; r < sig.numRegions; ++r) {
        if (op.region(r).empty()) {
            if constexpr (Diagnose)
                *err = "region " + std::to_string(r) + " has no block";
            return false;
        }
    }
    if (sig.terminator && op.nextInBlock()) {
        if constexpr (Diagnose)
            *err = "terminator must be the last op of its block";
        return false;
    }
    return true;
}

} // namespace

GroupBounds
operandGroup(const OpSignature &sig, const Operation &op, unsigned g)
{
    GroupSizes sizes;
    bool fits = splitGroups(sig.operandGroups.data(), sig.numOperandGroups,
                            op, static_cast<unsigned>(op.numOperands()),
                            "operand", sizes, nullptr);
    eq_assert(fits && g < sig.numOperandGroups, "op '", op.name(),
              "' does not match its signature");
    GroupBounds b;
    for (unsigned i = 0; i < g; ++i)
        b.begin += static_cast<unsigned>(sizes[i]);
    b.end = b.begin + static_cast<unsigned>(sizes[g]);
    return b;
}

SmallVector<Value, 16>
layOutOperands(const OpSignature &sig,
               std::initializer_list<ValueRange> groups, AttrDict &attrs)
{
    eq_assert(groups.size() == sig.numOperandGroups,
              "one operand list per signature group");
    SmallVector<Value, 16> operands;
    const ValueGroup *group = sig.operandGroups.data();
    for (ValueRange values : groups) {
        int64_t n = 0;
        for (Value v : values) {
            if (v || group->count != GroupCount::Optional) {
                operands.push_back(v);
                ++n;
            }
        }
        if (group->count == GroupCount::Counted ||
            (group->count == GroupCount::Optional && n))
            attrs.set(group->attr, Attribute::integer(n));
        ++group;
    }
    return operands;
}

bool
signatureMatches(const OpSignature &sig, Operation &op,
                 OperandGroups *groups)
{
    return check<false>(sig, op, nullptr, groups);
}

std::string
checkSignature(const OpSignature &sig, Operation &op)
{
    std::string err;
    check<true>(sig, op, &err, nullptr);
    return err;
}

} // namespace ir
} // namespace eq
