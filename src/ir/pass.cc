#include "ir/pass.hh"

namespace eq {
namespace ir {

std::string
PassManager::run(Operation *module)
{
    _timings.clear();
    for (auto &pass : _passes) {
        auto start = std::chrono::steady_clock::now();
        std::string err = pass->runOnModule(module);
        auto end = std::chrono::steady_clock::now();
        _timings.push_back(
            {pass->name(),
             std::chrono::duration<double>(end - start).count()});
        if (!err.empty())
            return pass->name() + ": " + err;
        std::string verr = module->verify();
        if (!verr.empty())
            return pass->name() + ": post-verify failed: " + verr;
    }
    return "";
}

} // namespace ir
} // namespace eq
