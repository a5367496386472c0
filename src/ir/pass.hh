/**
 * @file
 * Pass and PassManager: sequential module-level transformations.
 *
 * Mirrors the MLIR pass driver at the granularity this project needs:
 * passes mutate the module in place; the manager re-verifies the module
 * after each pass and records per-pass wall time for reporting.
 */

#ifndef EQ_IR_PASS_HH
#define EQ_IR_PASS_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/operation.hh"

namespace eq {
namespace ir {

/** Base class for module transformations. */
class Pass {
  public:
    explicit Pass(std::string name) : _name(std::move(name)) {}
    virtual ~Pass() = default;

    const std::string &name() const { return _name; }

    /** Transform @p module in place. Returns "" or a diagnostic. */
    virtual std::string runOnModule(Operation *module) = 0;

  private:
    std::string _name;
};

/** A pass wrapping a plain function. */
class LambdaPass : public Pass {
  public:
    using Fn = std::function<std::string(Operation *)>;
    LambdaPass(std::string name, Fn fn)
        : Pass(std::move(name)), _fn(std::move(fn))
    {}
    std::string
    runOnModule(Operation *module) override
    {
        return _fn(module);
    }

  private:
    Fn _fn;
};

/** Timing record for one executed pass. */
struct PassTiming {
    std::string name;
    double seconds = 0.0;
};

/** Runs a pipeline of passes over a module, verifying the module
 *  after each pass. */
class PassManager {
  public:
    void
    addPass(std::unique_ptr<Pass> pass)
    {
        _passes.push_back(std::move(pass));
    }

    template <typename PassT, typename... Args>
    void
    add(Args &&...args)
    {
        _passes.push_back(
            std::make_unique<PassT>(std::forward<Args>(args)...));
    }

    /**
     * Run all passes in order.
     * @return empty string on success, else "pass-name: diagnostic".
     */
    std::string run(Operation *module);

    const std::vector<PassTiming> &timings() const { return _timings; }

  private:
    std::vector<std::unique_ptr<Pass>> _passes;
    std::vector<PassTiming> _timings;
};

} // namespace ir
} // namespace eq

#endif // EQ_IR_PASS_HH
