#include "sim/component.hh"

#include "base/logging.hh"
#include "sim/engine.hh"

namespace eq {
namespace sim {

std::string
Component::path() const
{
    if (!_parent)
        return _name;
    return _parent->path() + "." + _name;
}

namespace {

/** SRAM: 1 cycle per word of bank occupancy; slower warm-up than
 *  registers (modeled via per-word cost), banked. */
class Sram : public Memory {
  public:
    Sram(std::string name, std::vector<int64_t> shape, unsigned data_bits,
         unsigned banks)
        : Memory(std::move(name), "SRAM", std::move(shape), data_bits,
                 banks, /*cycles_per_word=*/1)
    {}
};

/** Register file: zero-occupancy accesses (combinational datapath). */
class RegisterFile : public Memory {
  public:
    RegisterFile(std::string name, std::vector<int64_t> shape,
                 unsigned data_bits, unsigned banks)
        : Memory(std::move(name), "Register", std::move(shape), data_bits,
                 banks, /*cycles_per_word=*/0)
    {}
};

/** DRAM: slow bulk memory, 4 cycles/word occupancy. */
class DramMem : public Memory {
  public:
    DramMem(std::string name, std::vector<int64_t> shape,
            unsigned data_bits, unsigned banks)
        : Memory(std::move(name), "DRAM", std::move(shape), data_bits,
                 banks, /*cycles_per_word=*/4)
    {}
};

} // namespace

ComponentFactory::ComponentFactory()
{
    auto builtin = [this](const std::string &kind, MemoryMaker maker) {
        _memoryKinds[kind] = {std::move(maker), true};
    };
    builtin(
        "SRAM", [](const std::string &name, std::vector<int64_t> shape,
                   unsigned bits, unsigned banks) {
            return std::make_unique<Sram>(name, std::move(shape), bits,
                                          banks);
        });
    builtin(
        "Register", [](const std::string &name, std::vector<int64_t> shape,
                       unsigned bits, unsigned banks) {
            return std::make_unique<RegisterFile>(name, std::move(shape),
                                                  bits, banks);
        });
    builtin(
        "DRAM", [](const std::string &name, std::vector<int64_t> shape,
                   unsigned bits, unsigned banks) {
            return std::make_unique<DramMem>(name, std::move(shape), bits,
                                             banks);
        });
}

void
ComponentFactory::registerMemoryKind(const std::string &kind,
                                     MemoryMaker maker)
{
    _memoryKinds[kind] = {std::move(maker), false};
}

bool
ComponentFactory::isBuiltinKind(const std::string &kind) const
{
    auto it = _memoryKinds.find(kind);
    return it != _memoryKinds.end() && it->second.builtin;
}

bool
ComponentFactory::hasMemoryKind(const std::string &kind) const
{
    return _memoryKinds.count(kind) > 0;
}

std::unique_ptr<Memory>
ComponentFactory::makeMemory(const std::string &kind,
                             const std::string &name,
                             std::vector<int64_t> shape, unsigned data_bits,
                             unsigned banks) const
{
    auto it = _memoryKinds.find(kind);
    if (it == _memoryKinds.end())
        simulationFailed(detail::formatMessage(
            "unknown memory kind '", kind,
            "'; register it with ComponentFactory::registerMemoryKind"));
    return it->second.make(name, std::move(shape), data_bits, banks);
}

} // namespace sim
} // namespace eq
