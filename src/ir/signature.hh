/**
 * @file
 * Op signatures: each op class lists its operands, results, attributes
 * and regions once, as a constexpr table next to its name, and generic
 * code derives from that one list the verifier's arity, type and
 * attribute checks and the op views' operand-group accessors.
 *
 * Operands (and, the same way, results) form an ordered list of groups:
 *  - one:      exactly one value;
 *  - counted:  as many values as an int attribute says, or a default
 *              when the attribute is absent;
 *  - rest:     whatever the other groups leave (at most one per list);
 *  - optional: one value when an int flag attribute is nonzero.
 * Every value of a group must have one of the group's type kinds.
 *
 * An op class opts in with `static constexpr ir::OpSignature
 * opSignature{operand groups, result groups, attributes, region count,
 * terminator}` (the last three may be left out) and registers itself
 * with Context::registerOp<OpT>(hook), where the hook holds only the
 * semantic checks a signature cannot express.
 */

#ifndef EQ_IR_SIGNATURE_HH
#define EQ_IR_SIGNATURE_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "ir/attribute.hh"
#include "ir/value.hh"

namespace eq {
namespace ir {

class Operation;

/** A set of TypeKinds (or of AttrKinds), one bit per kind. */
using KindMask = uint32_t;

template <class... K>
constexpr KindMask
kinds(K... k)
{
    return ((KindMask(1) << static_cast<unsigned>(k)) | ...);
}

/// @name The attribute kinds an attribute may take
/// @{
constexpr KindMask kIntAttr = kinds(AttrKind::Int);
constexpr KindMask kStringAttr = kinds(AttrKind::String);
constexpr KindMask kI64ArrayAttr = kinds(AttrKind::I64Array);
constexpr KindMask kIntOrFloatAttr = kinds(AttrKind::Int, AttrKind::Float);
/// @}

constexpr KindMask kAnyKind = ~KindMask(0);
/** Indices and counters. */
constexpr KindMask kIndexKind = kinds(TypeKind::Index, TypeKind::Integer);
/** The scalars arith computes on. */
constexpr KindMask kScalarKind =
    kinds(TypeKind::Integer, TypeKind::Index, TypeKind::Float);

enum class GroupCount : uint8_t { One, Counted, Rest, Optional };

/** One run of operands (or results) that share a role. */
struct ValueGroup {
    KindMask kinds = kAnyKind;
    GroupCount count = GroupCount::One;
    uint8_t dflt = 0;           ///< Counted: the count when attr is absent
    uint8_t min = 0;            ///< Counted/Rest: the fewest values allowed
    const char *attr = nullptr; ///< Counted/Optional: the int attribute
};

constexpr ValueGroup
one(KindMask k)
{
    return {k, GroupCount::One, 0, 0, nullptr};
}

constexpr ValueGroup
counted(KindMask k, const char *attr, uint8_t dflt, uint8_t min = 0)
{
    return {k, GroupCount::Counted, dflt, min, attr};
}

constexpr ValueGroup
rest(KindMask k, uint8_t min = 0)
{
    return {k, GroupCount::Rest, 0, min, nullptr};
}

constexpr ValueGroup
optional(KindMask k, const char *flag)
{
    return {k, GroupCount::Optional, 0, 0, flag};
}

struct AttrSpec {
    const char *name = nullptr;
    KindMask kinds = kIntAttr;
    bool required = true;
};

/** The declared shape of one op kind. A list longer than its capacity
 *  fails to compile. (The result list has no default, so that `{{}, {x}}`
 *  cannot be read as one list of two operand groups.) */
struct OpSignature {
    constexpr OpSignature(std::initializer_list<ValueGroup> operands,
                          std::initializer_list<ValueGroup> results,
                          std::initializer_list<AttrSpec> attrs = {},
                          unsigned regions = 0, bool is_terminator = false)
        : numRegions(static_cast<uint8_t>(regions)),
          terminator(is_terminator)
    {
        for (const ValueGroup &g : operands) {
            operandGroups[numOperandGroups++] = g;
            singleOperands = singleOperands && g.count == GroupCount::One;
        }
        for (const ValueGroup &g : results) {
            resultGroups[numResultGroups++] = g;
            singleResults = singleResults && g.count == GroupCount::One;
        }
        for (const AttrSpec &a : attrs)
            attrSpecs[numAttrs++] = a;
    }

    static constexpr size_t kMaxGroups = 5;

    uint8_t numOperandGroups = 0;
    uint8_t numResultGroups = 0;
    uint8_t numAttrs = 0;
    uint8_t numRegions;
    /** Must be the last op of its block. */
    bool terminator;
    /** Every operand (result) group is one value: operand i is group i,
     *  so checking the list needs no split. */
    bool singleOperands = true;
    bool singleResults = true;
    std::array<ValueGroup, kMaxGroups> operandGroups{};
    std::array<ValueGroup, 2> resultGroups{};
    std::array<AttrSpec, 4> attrSpecs{};
};

/** The operand indices [begin, end) of one group. */
struct GroupBounds {
    unsigned begin = 0;
    unsigned end = 0;
    unsigned size() const { return end - begin; }
};

/** Where operand group @p g of @p sig lies in @p op, which must match
 *  @p sig (as every verified op does). */
GroupBounds operandGroup(const OpSignature &sig, const Operation &op,
                         unsigned g);

/** Where every operand group of an op lies, as the signature check
 *  split them: group g is operands [start[g], start[g + 1]). */
struct OperandGroups {
    std::array<unsigned, OpSignature::kMaxGroups + 1> start{};
    GroupBounds
    operator[](unsigned g) const
    {
        return {start[g], start[g + 1]};
    }
};

/** The operands of an op with signature @p sig, given as one list per
 *  group (a null value leaves an optional group empty). Sets each
 *  counted or present optional group's attribute in @p attrs. */
SmallVector<Value, 16> layOutOperands(const OpSignature &sig,
                                      std::initializer_list<ValueRange> groups,
                                      AttrDict &attrs);

/** Check @p op's operands, results, attributes and regions against
 *  @p sig. Returns an empty string on success, else a diagnostic. */
std::string checkSignature(const OpSignature &sig, Operation &op);

/** checkSignature's verdict alone (true: it would return ""), without
 *  building any string. On a match, @p groups (when given) receives
 *  the operand groups' bounds. */
bool signatureMatches(const OpSignature &sig, Operation &op,
                      OperandGroups *groups = nullptr);

} // namespace ir
} // namespace eq

#endif // EQ_IR_SIGNATURE_HH
