/**
 * @file
 * Extending the simulator library (Section IV-D): add a custom `Cache`
 * memory component by subclassing Memory and overriding
 * getReadOrWriteCycles, plus a custom `relu4` operation function via
 * the OpFunction registry — no engine changes required.
 *
 *   $ ./custom_component
 */

#include <cstdio>
#include <memory>

#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "sim/engine.hh"

using namespace eq;
using ir::Value;

namespace {

/** A direct-mapped cache model: hits cost 1 cycle, misses 20; the tag
 *  store is a simple line map over the backing address space. */
class CacheMem : public sim::Memory {
  public:
    CacheMem(std::string name, std::vector<int64_t> shape, unsigned bits,
             unsigned banks)
        : Memory(std::move(name), "Cache", std::move(shape), bits, banks,
                 /*cycles_per_word=*/1)
    {}

    sim::Cycles
    getReadOrWriteCycles(bool is_write, int64_t words) override
    {
        (void)is_write;
        sim::Cycles total = 0;
        for (int64_t i = 0; i < words; ++i) {
            // Sequential whole-buffer sweeps: one miss per 8-word line.
            bool miss = _nextWord % 8 == 0;
            total += miss ? 20 : 1;
            ++_nextWord;
            _hits += miss ? 0 : 1;
            _misses += miss ? 1 : 0;
        }
        return total;
    }

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }

  private:
    int64_t _nextWord = 0;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
};

} // namespace

int
main()
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());

    Value cache = b.create<equeue::CreateMemOp>(
                       std::string("Cache"), std::vector<int64_t>{256},
                       32u, 1u)
                      ->result(0);
    Value buf =
        b.create<equeue::AllocOp>(cache, std::vector<int64_t>{32}, 32u)
            ->result(0);
    Value proc =
        b.create<equeue::CreateProcOp>(std::string("ARMr5"))->result(0);
    auto start = b.create<equeue::ControlStartOp>();
    auto launch = b.create<equeue::LaunchOp>(
        std::vector<Value>{start->result(0)}, proc,
        std::vector<Value>{buf}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(b);
        equeue::LaunchOp l(launch.op());
        b.setInsertionPointToEnd(&l.body());
        // Stream the buffer through the custom relu4 op twice.
        auto data = b.create<equeue::ReadOp>(l.body().argument(0),
                                             Value(),
                                             std::vector<Value>{});
        auto relu = b.create<equeue::ExternOp>(
            std::string("relu4"), std::vector<Value>{data->result(0)},
            std::vector<ir::Type>{ctx.tensorType({32}, 32)});
        b.create<equeue::WriteOp>(relu->result(0), l.body().argument(0),
                                  Value(), std::vector<Value>{});
        auto again = b.create<equeue::ReadOp>(l.body().argument(0),
                                              Value(),
                                              std::vector<Value>{});
        (void)again;
        b.create<equeue::ReturnOp>(std::vector<Value>{});
    }
    b.create<equeue::AwaitOp>(std::vector<Value>{launch->result(0)});

    sim::Simulator s;
    // 1. Register the custom memory kind (create_mem("Cache", ...)).
    CacheMem *cache_obj = nullptr;
    s.componentFactory().registerMemoryKind(
        "Cache", [&](const std::string &name, std::vector<int64_t> shape,
                     unsigned bits, unsigned banks) {
            auto mem = std::make_unique<CacheMem>(name, std::move(shape),
                                                  bits, banks);
            cache_obj = mem.get();
            return mem;
        });
    // 2. Register the custom operation function (equeue.op "relu4":
    //    4 lanes per cycle).
    s.opFunctions().registerOp("relu4", [](const sim::OpCall &call) {
        auto t = call.args[0].asTensor();
        auto out = sim::TensorPtr::make(*t);
        for (auto &v : out->data)
            v = v < 0 ? 0 : v;
        sim::OpFnResult r;
        r.cycles = (out->numElements() + 3) / 4;
        r.results.push_back(sim::SimValue::ofTensor(out));
        return r;
    });

    auto rep = s.simulate(module.get());
    std::printf("simulated %llu cycles; cache hits=%llu misses=%llu\n",
                static_cast<unsigned long long>(rep.cycles),
                static_cast<unsigned long long>(
                    cache_obj ? cache_obj->hits() : 0),
                static_cast<unsigned long long>(
                    cache_obj ? cache_obj->misses() : 0));
    std::printf("the Cache class and relu4 op plugged in without "
                "touching the engine.\n");
    return 0;
}
