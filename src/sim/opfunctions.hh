/**
 * @file
 * Operation-function registry for `equeue.op` custom signatures
 * (Sections III-E and IV-D).
 *
 * An operation function receives the evaluated arguments (buffers are
 * passed as mutable BufferObj handles) and returns a cycle count plus any
 * result values. The engine consults the registry whenever it interprets
 * an `equeue.op`.
 */

#ifndef EQ_SIM_OPFUNCTIONS_HH
#define EQ_SIM_OPFUNCTIONS_HH

#include <array>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ir/operation.hh"
#include "sim/component.hh"
#include "sim/simvalue.hh"

namespace eq {
namespace sim {

/** Evaluated call site of an equeue.op. */
struct OpCall {
    ir::Operation *op = nullptr;
    std::vector<SimValue> args;
    Processor *proc = nullptr;
};

/** An op function's result values. The first kInline stay in place, so
 *  a typical call returns without allocating; push_back, size and []
 *  work as on a std::vector. */
class ResultList {
  public:
    static constexpr size_t kInline = 4;

    void
    push_back(SimValue v)
    {
        if (_n < kInline)
            _inline[_n] = std::move(v);
        else
            _spill.push_back(std::move(v));
        ++_n;
    }

    size_t size() const { return _n; }

    SimValue &
    operator[](size_t i)
    {
        return i < kInline ? _inline[i] : _spill[i - kInline];
    }
    const SimValue &
    operator[](size_t i) const
    {
        return i < kInline ? _inline[i] : _spill[i - kInline];
    }

  private:
    std::array<SimValue, kInline> _inline;
    std::vector<SimValue> _spill;
    size_t _n = 0;
};

/** What an operation function reports back to the scheduler. */
struct OpFnResult {
    Cycles cycles = 1;
    ResultList results;
};

using OpFunction = std::function<OpFnResult(const OpCall &)>;

/** Registry mapping signature strings to operation functions. */
class OpFunctionRegistry {
  public:
    /** Construct with the built-in library ("mac", "mul4", "mac4"). */
    OpFunctionRegistry();

    void registerOp(const std::string &signature, OpFunction fn);
    bool has(const std::string &signature) const;

    /** Whether @p signature names a built-in ("mac", "mul4", "mac4"):
     *  fixed cost, results a function of the arguments only. */
    static bool isBuiltin(std::string_view signature);
    /** False once registerOp has replaced a built-in. */
    bool builtinsIntact() const { return _builtinsIntact; }

    /** Resolve a signature to its registered function, or null. The
     *  returned pointer stays valid (and observes re-registrations of
     *  the same signature) for the registry's lifetime — the map is
     *  node-based and entries are never erased. Used by the fusion
     *  pass to cache the lookup out of the superinstruction hot path. */
    const OpFunction *find(const std::string &signature) const;

    /** Invoke; fatal if the signature is unknown. */
    OpFnResult invoke(const std::string &signature,
                      const OpCall &call) const;

  private:
    std::map<std::string, OpFunction> _fns;
    bool _builtinsIntact = true;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_OPFUNCTIONS_HH
