#include "sim/opfunctions.hh"

#include "base/logging.hh"
#include "sim/engine.hh"

namespace eq {
namespace sim {

namespace {

/**
 * "mac": scalar fused multiply-accumulate, a*b+acc in one cycle. This is
 * the PE datapath primitive the systolic-array model uses.
 */
/** Scalar view of an argument: ints pass through, 1-element tensors
 *  (whole-buffer reads of register cells) are unwrapped. */
int64_t
scalarOf(const SimValue &v)
{
    if (v.isTensor())
        return v.asTensor()->data.empty() ? 0 : v.asTensor()->data[0];
    return v.asInt();
}

OpFnResult
macFn(const OpCall &call)
{
    eq_assert(call.args.size() == 3, "mac expects (a, b, acc)");
    int64_t a = scalarOf(call.args[0]);
    int64_t b = scalarOf(call.args[1]);
    int64_t acc = scalarOf(call.args[2]);
    OpFnResult r;
    r.cycles = 1;
    r.results.push_back(SimValue::ofInt(a * b + acc));
    return r;
}

/**
 * AI Engine vector intrinsics (§VII-C): mul4/mac4 compute 4 output lanes,
 * each performing 2 multiplies per cycle [39]. Arguments are buffers:
 *   (ofmap[4], ifmap[>=off+5], filter[>=off+2])
 * with the tap offset passed via the op's `offset` attribute:
 *   ofmap[l] (=|+=) ifmap[l+off]*filter[off] + ifmap[l+off+1]*filter[off+1]
 */
OpFnResult
mulMac4Fn(const OpCall &call, bool accumulate)
{
    eq_assert(call.args.size() == 3,
              "mul4/mac4 expect (ofmap, ifmap, filter) buffers");
    BufferObj *ofmap = call.args[0].asBuffer();
    BufferObj *ifmap = call.args[1].asBuffer();
    BufferObj *filter = call.args[2].asBuffer();
    int64_t off = call.op ? call.op->intAttrOr("offset", 0) : 0;

    auto &of = ofmap->data->data;
    auto &in = ifmap->data->data;
    auto &fl = filter->data->data;
    for (int64_t lane = 0; lane < 4; ++lane) {
        int64_t acc = accumulate ? of[lane] : 0;
        for (int64_t k = 0; k < 2; ++k) {
            int64_t ii = lane + off + k;
            int64_t fi = off + k;
            if (ii < static_cast<int64_t>(in.size()) &&
                fi < static_cast<int64_t>(fl.size()))
                acc += in[ii] * fl[fi];
        }
        of[lane] = acc;
    }
    OpFnResult r;
    r.cycles = 1;
    return r;
}

} // namespace

OpFunctionRegistry::OpFunctionRegistry()
{
    _fns["mac"] = macFn;
    _fns["mul4"] = [](const OpCall &c) { return mulMac4Fn(c, false); };
    _fns["mac4"] = [](const OpCall &c) { return mulMac4Fn(c, true); };
}

void
OpFunctionRegistry::registerOp(const std::string &signature, OpFunction fn)
{
    if (isBuiltin(signature))
        _builtinsIntact = false;
    _fns[signature] = std::move(fn);
}

bool
OpFunctionRegistry::isBuiltin(std::string_view signature)
{
    return signature == "mac" || signature == "mul4" || signature == "mac4";
}

bool
OpFunctionRegistry::has(const std::string &signature) const
{
    return _fns.count(signature) > 0;
}

const OpFunction *
OpFunctionRegistry::find(const std::string &signature) const
{
    auto it = _fns.find(signature);
    return it == _fns.end() ? nullptr : &it->second;
}

OpFnResult
OpFunctionRegistry::invoke(const std::string &signature,
                           const OpCall &call) const
{
    auto it = _fns.find(signature);
    if (it == _fns.end())
        simulationFailed(detail::formatMessage(
            "no operation function registered for signature '", signature,
            "' (register one via opFunctions())"));
    return it->second(call);
}

} // namespace sim
} // namespace eq
