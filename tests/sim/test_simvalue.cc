/**
 * @file
 * sim::SimValue is a 16-byte tagged union whose tensor payload is an
 * intrusive count. Copy, move and assignment (self-assignment too) keep
 * every kind's value and the tensor's count; a moved-from value is
 * None; and a tensor is freed exactly when its last holder drops it,
 * whether that holder is a value, an env slot (freed when the env is
 * recycled), an exec's call frame (when the exec is released) or an
 * event's results (when the event is released).
 *
 * This is its own binary because it replaces the global operator
 * delete to see when a watched tensor is freed.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "sim/engine_impl.hh"

namespace {

const void *gWatched = nullptr;
bool gWatchedFreed = false;

void
noteFree(void *p)
{
    if (p && p == gWatched)
        gWatchedFreed = true;
}

} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// Out of line, so the compiler never pairs an inlined malloc() or free()
// with the operator it sees at an allocation or delete site.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    noteFree(p);
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    noteFree(p);
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    noteFree(p);
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    noteFree(p);
    std::free(p);
}

namespace {

using namespace eq;
using sim::SimValue;
using sim::TensorPtr;

/** Start watching @p t: gWatchedFreed flips when it is deleted. */
void
watch(const TensorPtr &t)
{
    gWatched = t.get();
    gWatchedFreed = false;
}

/** Two values hold the same kind and payload. */
::testing::AssertionResult
same(const SimValue &a, const SimValue &b)
{
    auto kind = [](const SimValue &v) {
        return v.isNone()         ? 0
               : v.isInt()        ? 1
               : v.isFloat()      ? 2
               : v.isTensor()     ? 3
               : v.isEvent()      ? 4
               : v.isComponent()  ? 5
               : v.isBuffer()     ? 6
               : v.isConnection() ? 7
               : v.isStream()     ? 8
                                  : -1;
    };
    if (kind(a) != kind(b))
        return ::testing::AssertionFailure()
               << "kinds " << kind(a) << " and " << kind(b);
    bool eq = true;
    switch (kind(a)) {
    case 1: eq = a.asInt() == b.asInt(); break;
    case 2: eq = a.asFloat() == b.asFloat(); break;
    case 3: eq = a.asTensor() == b.asTensor(); break;
    case 4: eq = a.asEvent() == b.asEvent(); break;
    case 5: eq = a.asComponent() == b.asComponent(); break;
    case 6: eq = a.asBuffer() == b.asBuffer(); break;
    case 7: eq = a.asConnection() == b.asConnection(); break;
    case 8: eq = a.asStream() == b.asStream(); break;
    default: break;
    }
    if (!eq)
        return ::testing::AssertionFailure()
               << "payloads differ (kind " << kind(a) << ")";
    return ::testing::AssertionSuccess();
}

TEST(SimValue, IsTwoWords)
{
    EXPECT_EQ(sizeof(SimValue), 16u);
}

TEST(SimValue, CopyMoveAndAssignKeepEveryKind)
{
    TensorPtr probe = sim::Tensor::zeros({2, 3}, 16);
    probe->data[4] = 9;
    sim::Processor proc("p", "ARMr5");
    sim::BufferObj buf;
    sim::Connection conn("c", "Streaming", 8);
    sim::StreamFifo fifo("f", 32);
    {
        const std::vector<SimValue> kinds = {
            SimValue(),
            SimValue::ofInt(-5),
            SimValue::ofFloat(2.5),
            SimValue::ofTensor(probe),
            SimValue::ofEvent(7),
            SimValue::ofComponent(&proc),
            SimValue::ofBuffer(&buf),
            SimValue::ofConnection(&conn),
            SimValue::ofStream(&fifo),
        };
        EXPECT_EQ(kinds[3].asTensor(), probe.get());
        EXPECT_EQ(kinds[3].asTensor()->data[4], 9);
        for (const SimValue &x : kinds) {
            for (const SimValue &y : kinds) {
                SimValue c(x);
                EXPECT_TRUE(same(c, x));
                SimValue m(std::move(c));
                EXPECT_TRUE(same(m, x));
                EXPECT_TRUE(c.isNone());

                SimValue a = y;
                a = x;
                EXPECT_TRUE(same(a, x));
                SimValue b = y;
                SimValue t = x;
                b = std::move(t);
                EXPECT_TRUE(same(b, x));
                EXPECT_TRUE(t.isNone());

                // Self-assignment keeps the value (and the tensor).
                SimValue &ra = a;
                a = ra;
                EXPECT_TRUE(same(a, x));
                a = std::move(ra);
                EXPECT_TRUE(same(a, x));
            }
        }
        EXPECT_FALSE(probe.unique());
    }
    // Every copy above dropped its count again.
    EXPECT_TRUE(probe.unique());
    EXPECT_EQ(probe->data[4], 9);
}

TEST(SimValue, TensorIsFreedWithItsLastHolder)
{
    // Holders in a vector, as the engine keeps them in env slots.
    std::vector<SimValue> holders(3);
    TensorPtr t = sim::Tensor::zeros({4}, 32);
    watch(t);
    holders[0] = SimValue::ofTensor(std::move(t));
    EXPECT_FALSE(t);
    holders[1] = holders[0];
    holders[2] = std::move(holders[1]);
    EXPECT_TRUE(holders[1].isNone());
    holders[0] = SimValue::ofInt(1);
    EXPECT_FALSE(gWatchedFreed);
    holders[2] = SimValue();
    EXPECT_TRUE(gWatchedFreed);

    // Self-assignment of a tensor's only holder keeps it alive.
    holders[0] = SimValue::ofTensor(sim::Tensor::zeros({3}, 32));
    gWatched = holders[0].asTensor();
    gWatchedFreed = false;
    SimValue &self = holders[0];
    holders[0] = self;
    holders[0] = std::move(self);
    EXPECT_FALSE(gWatchedFreed);
    EXPECT_EQ(holders[0].asTensor()->numElements(), 3);
    holders[0] = SimValue();
    EXPECT_TRUE(gWatchedFreed);
    gWatched = nullptr;

    // A copy made by TensorPtr::make is a tensor of its own.
    TensorPtr a = sim::Tensor::zeros({2}, 32);
    TensorPtr b = TensorPtr::make(*a);
    EXPECT_NE(a.get(), b.get());
    EXPECT_TRUE(a.unique());
    EXPECT_TRUE(b.unique());
}

TEST(SimValue, EnvRecycleDropsItsTensors)
{
    sim::EnvPool pool;
    TensorPtr probe = sim::Tensor::zeros({4}, 32);
    {
        sim::EnvPtr parent = pool.acquire(1, 3, nullptr);
        parent->slots[2] = SimValue::ofTensor(probe);
        sim::EnvPtr child = pool.acquire(2, 1, parent);
        child->slots[0] = SimValue::ofTensor(probe);
        parent.reset();
        EXPECT_FALSE(probe.unique());
    }
    // Both envs went back to the pool with their slots cleared.
    EXPECT_TRUE(probe.unique());
    sim::EnvPtr again = pool.acquire(3, 3, nullptr);
    EXPECT_TRUE(again->slots[2].isNone());
    EXPECT_EQ(again->scopeId, 3u);

    watch(probe);
    again->slots[0] = SimValue::ofTensor(std::move(probe));
    EXPECT_FALSE(gWatchedFreed);
    again.reset();
    EXPECT_TRUE(gWatchedFreed);
    gWatched = nullptr;
}

TEST(SimValue, EventReleaseDropsItsResults)
{
    sim::EventStore events;
    TensorPtr probe = sim::Tensor::zeros({4}, 32);
    sim::Event *ev = events.create(sim::Event::Kind::Launch);
    ev->results.push_back(SimValue::ofTensor(probe));
    events.markDone(ev, 5);
    EXPECT_FALSE(probe.unique());
    events.release(ev);
    EXPECT_TRUE(probe.unique());
}

/**
 * Launch A makes a tensor (op "make", which returns the test's probe)
 * and passes it to op "use"; launch B, after A, checks that nothing of
 * A holds it any more: A's env was recycled and its exec's call frame
 * released when A finished, not at the end of the run.
 */
TEST(SimValue, FinishedLaunchDropsItsTensors)
{
    for (sim::Backend backend :
         {sim::Backend::Interp, sim::Backend::Compiled}) {
        SCOPED_TRACE(sim::backendName(backend));
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        ir::OwningOpRef module = ir::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
        auto proc = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
        auto start = b.create<equeue::ControlStartOp>();
        auto launchA = b.create<equeue::LaunchOp>(
            std::vector<ir::Value>{start->result(0)}, proc->result(0),
            std::vector<ir::Value>{}, std::vector<ir::Type>{});
        {
            ir::OpBuilder::InsertionGuard g(b);
            equeue::LaunchOp l(launchA.op());
            b.setInsertionPointToEnd(&l.body());
            auto made = b.create<equeue::ExternOp>(
                std::string("make"), std::vector<ir::Value>{},
                std::vector<ir::Type>{ctx.tensorType({4}, 32)});
            b.create<equeue::ExternOp>(
                std::string("use"), std::vector<ir::Value>{made->result(0)},
                std::vector<ir::Type>{});
            b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
        }
        auto launchB = b.create<equeue::LaunchOp>(
            std::vector<ir::Value>{launchA->result(0)}, proc->result(0),
            std::vector<ir::Value>{}, std::vector<ir::Type>{});
        {
            ir::OpBuilder::InsertionGuard g(b);
            equeue::LaunchOp l(launchB.op());
            b.setInsertionPointToEnd(&l.body());
            b.create<equeue::ExternOp>(std::string("check"),
                                       std::vector<ir::Value>{},
                                       std::vector<ir::Type>{});
            b.create<equeue::ReturnOp>(std::vector<ir::Value>{});
        }
        b.create<equeue::AwaitOp>(
            std::vector<ir::Value>{launchB->result(0)});

        sim::EngineOptions opts;
        opts.backend = backend;
        sim::Simulator simulator(opts);
        TensorPtr probe = sim::Tensor::zeros({4}, 32);
        int used = 0, checked = 0;
        auto &fns = simulator.opFunctions();
        fns.registerOp("make", [&](const sim::OpCall &) {
            sim::OpFnResult r;
            r.results.push_back(SimValue::ofTensor(probe));
            return r;
        });
        fns.registerOp("use", [&](const sim::OpCall &call) {
            EXPECT_EQ(call.args[0].asTensor(), probe.get());
            EXPECT_FALSE(probe.unique());
            ++used;
            return sim::OpFnResult{};
        });
        fns.registerOp("check", [&](const sim::OpCall &) {
            EXPECT_TRUE(probe.unique());
            ++checked;
            return sim::OpFnResult{};
        });
        simulator.simulate(module.get());
        EXPECT_EQ(used, 1);
        EXPECT_EQ(checked, 1);
        EXPECT_TRUE(probe.unique());
    }
}

} // namespace
