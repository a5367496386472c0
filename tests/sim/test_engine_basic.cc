/**
 * @file
 * Basic engine tests: structure elaboration, scalar compute on launch
 * blocks (including integer overflow and division edge cases), affine
 * loops, linalg analytic costs, the Fig. 2 toy example.
 */

#include <gtest/gtest.h>

#include <limits>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "dialects/linalg.hh"
#include "dialects/memref.hh"
#include "ir/builder.hh"
#include "sim/engine.hh"

namespace {

using namespace eq;

class EngineBasicTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        ir::registerAllDialects(ctx);
        module = ir::createModule(ctx);
        b = std::make_unique<ir::OpBuilder>(ctx);
        b->setInsertionPointToEnd(&module->region(0).front());
    }

    ir::Context ctx;
    ir::OwningOpRef module;
    std::unique_ptr<ir::OpBuilder> b;
};

TEST_F(EngineBasicTest, EmptyModuleSimulatesToZeroCycles)
{
    sim::Simulator s;
    auto rep = s.simulate(module.get());
    EXPECT_EQ(rep.cycles, 0u);
    EXPECT_EQ(rep.eventsExecuted, 0u);
}

TEST_F(EngineBasicTest, LaunchOnScalarCoreCostsPerOp)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&equeue::LaunchOp(launch.op()).body());
        auto c1 = b->create<arith::ConstantOp>(int64_t{2}, ctx.i32Type());
        auto c2 = b->create<arith::ConstantOp>(int64_t{3}, ctx.i32Type());
        auto add = b->create<arith::AddIOp>(c1->result(0), c2->result(0));
        auto mul = b->create<arith::MulIOp>(add->result(0), c2->result(0));
        (void)mul;
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});

    sim::Simulator s;
    auto rep = s.simulate(module.get());
    // Two constants are free; addi + muli cost 1 cycle each on ARM.
    EXPECT_EQ(rep.cycles, 2u);
    EXPECT_EQ(rep.eventsExecuted, 2u); // control_start + launch
    ASSERT_EQ(rep.processors.size(), 1u);
    EXPECT_EQ(rep.processors[0].busyCycles, 2u);
}

TEST_F(EngineBasicTest, LaunchReturnsValuesToCreator)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{}, std::vector<ir::Type>{ctx.i32Type()});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&equeue::LaunchOp(launch.op()).body());
        auto c = b->create<arith::ConstantOp>(int64_t{5}, ctx.i32Type());
        auto sq = b->create<arith::MulIOp>(c->result(0), c->result(0));
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{sq->result(0)});
    }
    // Second launch consumes the first one's return value (dep-ordered).
    auto launch2 = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{launch->result(0)}, proc->result(0),
        std::vector<ir::Value>{launch->result(1)},
        std::vector<ir::Type>{ctx.i32Type()});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l2(launch2.op());
        b->setInsertionPointToEnd(&l2.body());
        auto c = b->create<arith::ConstantOp>(int64_t{1}, ctx.i32Type());
        auto inc =
            b->create<arith::AddIOp>(l2.body().argument(0), c->result(0));
        b->create<equeue::ReturnOp>(
            std::vector<ir::Value>{inc->result(0)});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{launch2->result(0)});

    sim::Simulator s;
    auto rep = s.simulate(module.get());
    // 5*5=25 computed in launch1 (1 cycle), 25+1 in launch2 (1 cycle).
    EXPECT_EQ(rep.cycles, 2u);
}

TEST_F(EngineBasicTest, IntegerArithWrapsAndDivisionNeverTraps)
{
    const int64_t kMin = std::numeric_limits<int64_t>::min();
    const int64_t kMax = std::numeric_limits<int64_t>::max();
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&equeue::LaunchOp(launch.op()).body());
        auto cst = [&](int64_t v) {
            return b->create<arith::ConstantOp>(v, ctx.i64Type())
                ->result(0);
        };
        ir::Value max = cst(kMax), min = cst(kMin), one = cst(1),
                  neg1 = cst(-1), two = cst(2), zero = cst(0);
        std::vector<ir::Value> probes = {
            b->create<arith::AddIOp>(max, one)->result(0),
            b->create<arith::SubIOp>(min, one)->result(0),
            b->create<arith::MulIOp>(max, two)->result(0),
            b->create<arith::MulIOp>(min, neg1)->result(0),
            b->create<arith::DivSIOp>(min, neg1)->result(0),
            b->create<arith::RemSIOp>(min, neg1)->result(0),
            b->create<arith::DivSIOp>(max, zero)->result(0),
            b->create<arith::RemSIOp>(max, zero)->result(0),
            b->create<arith::DivSIOp>(min, two)->result(0),
        };
        b->create<equeue::ExternOp>(std::string("probe"), probes,
                                    std::vector<ir::Type>{});
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});

    // Two's-complement wrap for add/sub/mul; INT64_MIN / -1 is
    // INT64_MIN with remainder 0; division by zero gives 0.
    const std::vector<int64_t> expected = {kMin, kMax, -2,      kMin, kMin,
                                           0,    0,    0,  kMin / 2};
    for (sim::Backend backend :
         {sim::Backend::Interp, sim::Backend::Compiled}) {
        sim::EngineOptions opts;
        opts.backend = backend;
        sim::Simulator s(opts);
        std::vector<int64_t> probed;
        s.opFunctions().registerOp("probe", [&](const sim::OpCall &call) {
            for (const sim::SimValue &v : call.args)
                probed.push_back(v.asInt());
            return sim::OpFnResult{};
        });
        s.simulate(module.get());
        EXPECT_EQ(probed, expected)
            << (backend == sim::Backend::Interp ? "interp" : "compiled");
    }
}

TEST_F(EngineBasicTest, AffineLoopOnHostExecutesAllIterations)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr6"));
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{64}, 32u, 4u);
    auto buf = b->create<equeue::AllocOp>(mem->result(0),
                                          std::vector<int64_t>{16}, 32u);
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{buf->result(0)}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(launch.op());
        b->setInsertionPointToEnd(&l.body());
        auto loop =
            b->create<affine::ForOp>(int64_t{0}, int64_t{16}, int64_t{1});
        {
            ir::OpBuilder::InsertionGuard g2(*b);
            affine::ForOp f(loop.op());
            b->setInsertionPointToEnd(&f.body());
            auto two =
                b->create<arith::ConstantOp>(int64_t{2}, ctx.i32Type());
            auto val =
                b->create<arith::MulIOp>(f.inductionVar(), two->result(0));
            b->create<equeue::WriteOp>(
                val->result(0), l.body().argument(0), ir::Value(),
                std::vector<ir::Value>{f.inductionVar()});
            b->create<affine::YieldOp>(std::vector<ir::Value>{});
        }
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});

    sim::Simulator s;
    auto rep = s.simulate(module.get());
    // Per iteration on a scalar core: muli(1) + write(1) + yield(1) = 3.
    EXPECT_EQ(rep.cycles, 16u * 3u);
    // SRAM saw 16 element writes of 4 bytes.
    ASSERT_EQ(rep.memories.size(), 1u);
    EXPECT_EQ(rep.memories[0].bytesWritten, 64);
    EXPECT_EQ(rep.memories[0].bytesRead, 0);
}

TEST_F(EngineBasicTest, LinalgConvFunctionalAndAnalyticCost)
{
    // host-level conv on memrefs: C=1,H=W=4, N=1,Fh=Fw=2 -> Eh=Ew=3.
    auto proc = b->create<equeue::CreateProcOp>(std::string("Generic"));
    auto ifm = b->create<memref::AllocOp>(std::vector<int64_t>{1, 4, 4},
                                          32u);
    auto wgt = b->create<memref::AllocOp>(
        std::vector<int64_t>{1, 1, 2, 2}, 32u);
    auto ofm = b->create<memref::AllocOp>(std::vector<int64_t>{1, 3, 3},
                                          32u);
    b->create<linalg::FillOp>(ifm->result(0), int64_t{1});
    b->create<linalg::FillOp>(wgt->result(0), int64_t{2});
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{ifm->result(0), wgt->result(0),
                               ofm->result(0)},
        std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(launch.op());
        b->setInsertionPointToEnd(&l.body());
        b->create<linalg::ConvOp>(l.body().argument(0),
                                  l.body().argument(1),
                                  l.body().argument(2));
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});

    sim::Simulator s;
    auto rep = s.simulate(module.get());
    // macs = 1*3*3*1*2*2 = 36; analytic model charges 10 cycles per MAC.
    EXPECT_EQ(rep.cycles, 36u * 10u);
}

TEST_F(EngineBasicTest, Fig2ToyAcceleratorRuns)
{
    // Fig. 2: Kernel + SRAM + DMA, two MAC PEs with register files.
    auto kernel = b->create<equeue::CreateProcOp>(std::string("ARMr6"));
    auto sram = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{64}, 32u, 4u);
    auto dma = b->create<equeue::CreateDmaOp>();
    auto accel = b->create<equeue::CreateCompOp>(
        std::string("Kernel SRAM DMA"),
        std::vector<ir::Value>{kernel->result(0), sram->result(0),
                               dma->result(0)});
    auto pe0 = b->create<equeue::CreateProcOp>(std::string("MAC"));
    auto reg0 = b->create<equeue::CreateMemOp>(
        std::string("Register"), std::vector<int64_t>{4}, 32u, 1u);
    auto pe1 = b->create<equeue::CreateProcOp>(std::string("MAC"));
    auto reg1 = b->create<equeue::CreateMemOp>(
        std::string("Register"), std::vector<int64_t>{4}, 32u, 1u);
    b->create<equeue::AddCompOp>(
        accel->result(0), std::string("PE0 Reg0 PE1 Reg1"),
        std::vector<ir::Value>{pe0->result(0), reg0->result(0),
                               pe1->result(0), reg1->result(0)});

    auto sbuf = b->create<equeue::AllocOp>(sram->result(0),
                                           std::vector<int64_t>{8}, 32u);
    auto rbuf0 = b->create<equeue::AllocOp>(reg0->result(0),
                                            std::vector<int64_t>{4}, 32u);
    auto rbuf1 = b->create<equeue::AllocOp>(reg1->result(0),
                                            std::vector<int64_t>{4}, 32u);

    auto start = b->create<equeue::ControlStartOp>();
    auto outer = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, kernel->result(0),
        std::vector<ir::Value>{sbuf->result(0), rbuf0->result(0),
                               rbuf1->result(0), dma->result(0),
                               pe0->result(0), pe1->result(0)},
        std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(outer.op());
        b->setInsertionPointToEnd(&l.body());
        ir::Value a_sbuf = l.body().argument(0);
        ir::Value a_r0 = l.body().argument(1);
        ir::Value a_r1 = l.body().argument(2);
        ir::Value a_dma = l.body().argument(3);
        ir::Value a_pe0 = l.body().argument(4);
        ir::Value a_pe1 = l.body().argument(5);

        auto copy_dep = b->create<equeue::ControlStartOp>();
        auto cp0 = b->create<equeue::MemcpyOp>(
            copy_dep->result(0), a_sbuf, a_r0, a_dma, ir::Value());
        auto cp1 = b->create<equeue::MemcpyOp>(
            cp0->result(0), a_sbuf, a_r1, a_dma, ir::Value());

        auto mk_pe = [&](ir::Value pe, ir::Value reg, ir::Value dep) {
            auto lp = b->create<equeue::LaunchOp>(
                std::vector<ir::Value>{dep}, pe,
                std::vector<ir::Value>{reg}, std::vector<ir::Type>{});
            ir::OpBuilder::InsertionGuard g2(*b);
            equeue::LaunchOp inner(lp.op());
            b->setInsertionPointToEnd(&inner.body());
            auto ifmap = b->create<equeue::ReadOp>(
                inner.body().argument(0), ir::Value(),
                std::vector<ir::Value>{});
            b->create<equeue::WriteOp>(ifmap->result(0),
                                       inner.body().argument(0),
                                       ir::Value(),
                                       std::vector<ir::Value>{});
            b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
            return lp->result(0);
        };
        ir::Value d0 = mk_pe(a_pe0, a_r0, cp0->result(0));
        ir::Value d1 = mk_pe(a_pe1, a_r1, cp1->result(0));
        b->create<equeue::AwaitOp>(std::vector<ir::Value>{d0, d1});
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{outer->result(0)});

    ASSERT_EQ(module->verify(), "");
    sim::Simulator s;
    auto rep = s.simulate(module.get());
    EXPECT_GT(rep.cycles, 0u);
    // DMA copied 2x (4 words from an 8-word SRAM buffer into 4-word regs).
    const sim::MemReport *sram_rep = nullptr;
    for (const auto &m : rep.memories)
        if (m.kind == "SRAM")
            sram_rep = &m;
    ASSERT_NE(sram_rep, nullptr);
    EXPECT_EQ(sram_rep->bytesRead, 2 * 4 * 4);
    // 5 events: control_start x2, memcpy x2... plus 3 launches.
    EXPECT_GE(rep.eventsExecuted, 7u);
}

TEST_F(EngineBasicTest, ParallelOpIteratesFullDomain)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{64}, 32u, 4u);
    auto buf = b->create<equeue::AllocOp>(
        mem->result(0), std::vector<int64_t>{4, 4}, 32u);
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{buf->result(0)}, std::vector<ir::Type>{});
    {
        ir::OpBuilder::InsertionGuard g(*b);
        equeue::LaunchOp l(launch.op());
        b->setInsertionPointToEnd(&l.body());
        auto par = b->create<affine::ParallelOp>(
            std::vector<int64_t>{0, 0}, std::vector<int64_t>{4, 4},
            std::vector<int64_t>{});
        {
            ir::OpBuilder::InsertionGuard g2(*b);
            affine::ParallelOp p(par.op());
            b->setInsertionPointToEnd(&p.body());
            auto sum = b->create<arith::AddIOp>(p.body().argument(0),
                                                p.body().argument(1));
            b->create<equeue::WriteOp>(
                sum->result(0), l.body().argument(0), ir::Value(),
                std::vector<ir::Value>{p.body().argument(0),
                                       p.body().argument(1)});
            b->create<affine::YieldOp>(std::vector<ir::Value>{});
        }
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
    }
    b->create<equeue::AwaitOp>(std::vector<ir::Value>{launch->result(0)});

    sim::Simulator s;
    auto rep = s.simulate(module.get());
    // 16 iterations x (addi + write + yield) = 48 cycles sequentialized.
    EXPECT_EQ(rep.cycles, 48u);
    EXPECT_EQ(rep.memories[0].bytesWritten, 16 * 4);
}

} // namespace
