/**
 * @file
 * The Context owns all interned type storage, the operation-name pool,
 * and the operation registry.
 *
 * Every module and every operation belongs to exactly one Context. Op
 * names are interned into dense OpIds (see ir/opid.hh) so that passes
 * and the simulation engine compare integers, never strings. Dialects
 * register their operations (each with its signature, see
 * ir/signature.hh, and an optional semantic hook) against it; the
 * verifier rejects unregistered operations unless allowUnregistered()
 * is set.
 *
 * The Context owns the memory of its IR too (IrStore, see ir/store.hh):
 * every op, block and argument chunk built in it is carved from the
 * store's chunks, and a rebuild after the last tree died reuses them.
 *
 * The Context also counts IR versions: every mutation of an op tree in
 * it (operands, attributes, op insertion, removal, moves and
 * destruction, block arguments, region blocks, value types) and every
 * registry change bumps irGeneration(). Operation::verify() remembers
 * the last op it passed and the generation it passed at, and answers a
 * repeat call at that same generation without re-checking.
 */

#ifndef EQ_IR_CONTEXT_HH
#define EQ_IR_CONTEXT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/opid.hh"
#include "ir/signature.hh"
#include "ir/store.hh"
#include "ir/type.hh"
#include "ir/value.hh"

namespace eq {
namespace ir {

class Operation;

/** Semantic checks beyond an op's signature: an empty string on
 *  success, else a diagnostic. Runs only on ops that match their
 *  signature, with the operand groups the signature check split. */
using VerifyHook = std::string (*)(Operation *, const OperandGroups &);

/** Registry record for one operation kind. */
struct OpInfo {
    std::string name;
    const OpSignature *signature = nullptr;
    VerifyHook verify = nullptr;
};

/** Owner of interned types, operation metadata, and unique op ids. */
class Context {
  public:
    Context();
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /// @name Type factories (interned)
    /// @{
    Type noneType();
    Type indexType();
    Type intType(unsigned width);
    Type i1Type() { return intType(1); }
    Type i32Type() { return intType(32); }
    Type i64Type() { return intType(64); }
    Type floatType(unsigned width = 32);
    Type tensorType(ArrayRef<int64_t> shape, unsigned elem_bits);
    Type memrefType(ArrayRef<int64_t> shape, unsigned elem_bits);
    Type eventType();
    Type procType();
    Type memType();
    Type dmaType();
    Type compType();
    Type connectionType();
    Type streamType();
    Type bufferType(ArrayRef<int64_t> shape, unsigned elem_bits);
    Type anyType();
    /// @}

    /// @name Operation-name interning
    /// @{
    /** Intern @p name; returns its dense OpId (idempotent). */
    OpId internOpName(std::string_view name);
    /** The id of an already-interned name; invalid OpId otherwise. */
    OpId lookupOpId(std::string_view name) const;
    /** Pooled name for @p id; the reference lives as long as the
     *  Context (Operations alias it instead of owning a copy). */
    const std::string &opName(OpId id) const;
    /** Number of distinct interned names; ids are dense in
     *  [0, numInternedOpNames()). */
    size_t numInternedOpNames() const { return _opNamePool.size(); }
    /** Resolve a per-class OpIdCache slot (see ir/opid.hh). */
    OpId cachedOpId(unsigned slot, const char *name);
    /// @}

    /** Register one operation kind; re-registration replaces. */
    void registerOp(OpInfo info);
    /** Register the op class @p OpT from its `opName` and `opSignature`. */
    template <class OpT>
    void
    registerOp(VerifyHook verify = nullptr)
    {
        registerOp({OpT::opName, &OpT::opSignature, verify});
    }
    /** Look up registry info; nullptr when unregistered. */
    const OpInfo *lookupOp(std::string_view name) const;
    const OpInfo *lookupOp(OpId id) const;
    /** Names of every registered op, in sorted order. Lets tests and
     *  tooling enumerate the registry (e.g. exhaustive round-trip
     *  coverage that fails automatically when a new op is added). */
    std::vector<std::string> registeredOpNames() const;

    /** When true the verifier tolerates unregistered op names. */
    bool allowUnregistered() const { return _allowUnregistered; }
    void
    setAllowUnregistered(bool v)
    {
        _allowUnregistered = v;
        noteIrChange();
    }

    /** The IR version: bumped by every mutation of IR in this context
     *  and by every registry change (see the file comment). */
    uint64_t irGeneration() const { return _irGeneration; }

    /** Identity of this context, never reused by another one in the
     *  process (unlike its address, which a later context may get
     *  once this one is destroyed). 0 is never a serial. */
    uint64_t serial() const { return _serial; }

    /** Monotonic per-Operation id source used for deterministic
     *  ordering (distinct from OpId, which identifies op *kinds*). */
    uint64_t nextOperationId() { return _nextOperationId++; }

    /** Where this context's IR lives (see ir/store.hh). */
    IrStore &irStore() { return _irStore; }

  private:
    friend class Operation;
    friend class Block;
    friend class Region;
    friend class Value;

    /** Record a change to the IR (or the registry) of this context. */
    void noteIrChange() { ++_irGeneration; }

    Type intern(TypeKind kind, unsigned width = 0,
                ArrayRef<int64_t> shape = {}, unsigned elem_bits = 0);

    IrStore _irStore;
    std::vector<std::unique_ptr<TypeStorage>> _typeStorage;
    /** Interned op names; index == OpId::raw(). unique_ptr keeps the
     *  string addresses stable across pool growth. */
    std::vector<std::unique_ptr<std::string>> _opNamePool;
    /** Name -> dense id; keys view into _opNamePool. */
    std::unordered_map<std::string_view, uint32_t> _opNameIds;
    /** internOpName's cache, direct-mapped by the name's address. */
    struct NameCacheSlot {
        const char *data = nullptr;
        uint32_t raw = 0;
    };
    std::array<NameCacheSlot, 64> _nameCache{};
    /** Registry info, dense by OpId; an empty name means the id is
     *  interned but the op kind is unregistered. */
    std::vector<OpInfo> _opInfos;
    /** OpIdCache slot -> resolved id for this context. */
    std::vector<OpId> _cachedOpIds;
    uint64_t _serial;
    bool _allowUnregistered = false;
    uint64_t _nextOperationId = 0;
    uint64_t _irGeneration = 0;
    /** The verify memo: the last op whose verify() passed, and the
     *  generation it passed at. */
    const Operation *_verifiedOp = nullptr;
    uint64_t _verifiedGeneration = 0;
};

/** Register every dialect this project defines onto @p ctx. */
void registerAllDialects(Context &ctx);

} // namespace ir
} // namespace eq

#endif // EQ_IR_CONTEXT_HH
