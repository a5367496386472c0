/**
 * @file
 * Exhaustive coverage driven by the op registry: every op name that
 * registerAllDialects() installs must have an exemplar below. Each
 * exemplar module must verify and survive print -> parse -> print as a
 * fixpoint, and each mutation its op's signature forbids (a missing or
 * extra operand, an operand of a disallowed type kind, a missing or
 * mistyped required attribute) must fail verification. Registering a
 * new op without adding an exemplar fails this test automatically.
 */

#include "testutil.hh"

#include <algorithm>
#include <functional>
#include <map>

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "dialects/linalg.hh"
#include "dialects/memref.hh"

namespace {

using namespace eq;

class RegistryRoundTripTest : public test::RegisteredModuleTest {
  protected:
    using Emit = std::function<void()>;

    /** One exemplar per registered op name; each emits into the
     *  module. */
    std::map<std::string, Emit> exemplarTable();

    /** The first op named @p name in the module (the module itself for
     *  builtin.module). */
    ir::Operation *
    firstOp(const std::string &name)
    {
        ir::Operation *found = nullptr;
        module->walk([&](ir::Operation *op) {
            if (!found && op->name() == name)
                found = op;
        });
        return found;
    }

    // --- exemplar building blocks (each call emits into the module) ---
    ir::Value
    intConst(int64_t v)
    {
        return b->create<arith::ConstantOp>(v, ctx.i32Type())->result(0);
    }

    ir::Value
    idxConst(int64_t v)
    {
        return b->create<arith::ConstantOp>(v, ctx.indexType())->result(0);
    }

    ir::Value
    floatConst(double v)
    {
        return b->create<arith::ConstantOp>(v, ctx.floatType())->result(0);
    }

    ir::Value
    mem()
    {
        return b
            ->create<equeue::CreateMemOp>(std::string("SRAM"),
                                          std::vector<int64_t>{256}, 32u,
                                          2u)
            ->result(0);
    }

    ir::Value
    buffer(ir::Value m)
    {
        return b
            ->create<equeue::AllocOp>(m, std::vector<int64_t>{16}, 32u)
            ->result(0);
    }

    ir::Value
    proc()
    {
        return b->create<equeue::CreateProcOp>(std::string("MAC"))
            ->result(0);
    }

    /** A launch with a read/write/return body (also the exemplar for
     *  the body-only ops read, write, and return). */
    void
    emitLaunch()
    {
        ir::Value p = proc();
        ir::Value buf = buffer(mem());
        ir::Value start = b->create<equeue::ControlStartOp>()->result(0);
        auto launch = b->create<equeue::LaunchOp>(
            std::vector<ir::Value>{start}, p,
            std::vector<ir::Value>{buf}, std::vector<ir::Type>{});
        {
            ir::OpBuilder::InsertionGuard g(*b);
            equeue::LaunchOp l(launch.op());
            b->setInsertionPointToEnd(&l.body());
            auto data = b->create<equeue::ReadOp>(
                l.body().argument(0), ir::Value(),
                std::vector<ir::Value>{});
            b->create<equeue::WriteOp>(data->result(0),
                                       l.body().argument(0), ir::Value(),
                                       std::vector<ir::Value>{});
            b->create<equeue::ReturnOp>(std::vector<ir::Value>{});
        }
        b->create<equeue::AwaitOp>(
            std::vector<ir::Value>{launch->result(0)});
    }

    void
    emitAffineFor()
    {
        auto loop =
            b->create<affine::ForOp>(int64_t{0}, int64_t{8}, int64_t{2});
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&affine::ForOp(loop.op()).body());
        b->create<affine::YieldOp>(std::vector<ir::Value>{});
    }
};

std::map<std::string, RegistryRoundTripTest::Emit>
RegistryRoundTripTest::exemplarTable()
{
    std::map<std::string, Emit> exemplars;

    exemplars["builtin.module"] = [] { /* the module op itself */ };

    // arith ------------------------------------------------------------
    exemplars["arith.constant"] = [&] { intConst(42); };
    exemplars["arith.addi"] = [&] {
        b->create<arith::AddIOp>(intConst(1), intConst(2));
    };
    exemplars["arith.subi"] = [&] {
        b->create<arith::SubIOp>(intConst(5), intConst(3));
    };
    exemplars["arith.muli"] = [&] {
        b->create<arith::MulIOp>(intConst(4), intConst(6));
    };
    exemplars["arith.divsi"] = [&] {
        b->create<arith::DivSIOp>(intConst(9), intConst(3));
    };
    exemplars["arith.remsi"] = [&] {
        b->create<arith::RemSIOp>(intConst(9), intConst(4));
    };
    exemplars["arith.addf"] = [&] {
        b->create<arith::AddFOp>(floatConst(1.5), floatConst(2.5));
    };
    exemplars["arith.mulf"] = [&] {
        b->create<arith::MulFOp>(floatConst(0.5), floatConst(8.0));
    };

    // memref -----------------------------------------------------------
    exemplars["memref.alloc"] = [&] {
        b->create<memref::AllocOp>(std::vector<int64_t>{4, 4}, 32u);
    };
    exemplars["memref.dealloc"] = [&] {
        auto m =
            b->create<memref::AllocOp>(std::vector<int64_t>{8}, 32u);
        b->create<memref::DeallocOp>(m->result(0));
    };

    // affine -----------------------------------------------------------
    exemplars["affine.for"] = [&] { emitAffineFor(); };
    exemplars["affine.yield"] = [&] { emitAffineFor(); };
    exemplars["affine.parallel"] = [&] {
        auto par = b->create<affine::ParallelOp>(
            std::vector<int64_t>{0, 0}, std::vector<int64_t>{4, 4},
            std::vector<int64_t>{1, 1});
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&affine::ParallelOp(par.op()).body());
        b->create<affine::YieldOp>(std::vector<ir::Value>{});
    };
    exemplars["affine.load"] = [&] {
        auto m =
            b->create<memref::AllocOp>(std::vector<int64_t>{8}, 32u);
        b->create<affine::LoadOp>(m->result(0),
                                  std::vector<ir::Value>{idxConst(3)});
    };
    exemplars["affine.store"] = [&] {
        auto m =
            b->create<memref::AllocOp>(std::vector<int64_t>{8}, 32u);
        b->create<affine::StoreOp>(intConst(7), m->result(0),
                                   std::vector<ir::Value>{idxConst(0)});
    };

    // linalg -----------------------------------------------------------
    exemplars["linalg.conv"] = [&] {
        auto ifm = b->create<memref::AllocOp>(
            std::vector<int64_t>{2, 6, 6}, 32u);
        auto wgt = b->create<memref::AllocOp>(
            std::vector<int64_t>{3, 2, 3, 3}, 32u);
        auto ofm = b->create<memref::AllocOp>(
            std::vector<int64_t>{3, 4, 4}, 32u);
        b->create<linalg::ConvOp>(ifm->result(0), wgt->result(0),
                                  ofm->result(0));
    };
    exemplars["linalg.matmul"] = [&] {
        auto a = b->create<memref::AllocOp>(std::vector<int64_t>{4, 8},
                                            32u);
        auto bm = b->create<memref::AllocOp>(std::vector<int64_t>{8, 2},
                                             32u);
        auto c = b->create<memref::AllocOp>(std::vector<int64_t>{4, 2},
                                            32u);
        b->create<linalg::MatmulOp>(a->result(0), bm->result(0),
                                    c->result(0));
    };
    exemplars["linalg.fill"] = [&] {
        auto m =
            b->create<memref::AllocOp>(std::vector<int64_t>{16}, 32u);
        b->create<linalg::FillOp>(m->result(0), int64_t{0});
    };

    // equeue structure ---------------------------------------------------
    exemplars["equeue.create_proc"] = [&] { proc(); };
    exemplars["equeue.create_dma"] = [&] {
        b->create<equeue::CreateDmaOp>();
    };
    exemplars["equeue.create_mem"] = [&] { mem(); };
    exemplars["equeue.create_stream"] = [&] {
        b->create<equeue::CreateStreamOp>(32u);
    };
    exemplars["equeue.create_comp"] = [&] {
        ir::Value p = proc();
        ir::Value m = mem();
        b->create<equeue::CreateCompOp>(std::string("Kernel Memory"),
                                        std::vector<ir::Value>{p, m});
    };
    exemplars["equeue.add_comp"] = [&] {
        ir::Value p = proc();
        auto comp = b->create<equeue::CreateCompOp>(
            std::string("Kernel"), std::vector<ir::Value>{p});
        b->create<equeue::AddCompOp>(comp->result(0),
                                     std::string("Memory"),
                                     std::vector<ir::Value>{mem()});
    };
    exemplars["equeue.extract_comp"] = [&] {
        ir::Value p = proc();
        auto comp = b->create<equeue::CreateCompOp>(
            std::string("PE_0_0"), std::vector<ir::Value>{p});
        b->create<equeue::ExtractCompOp>(comp->result(0),
                                         std::string("PE_"),
                                         std::vector<int64_t>{0, 0},
                                         ctx.procType());
    };
    exemplars["equeue.get_comp"] = [&] {
        auto dma = b->create<equeue::CreateDmaOp>();
        auto comp = b->create<equeue::CreateCompOp>(
            std::string("DMA"), std::vector<ir::Value>{dma->result(0)});
        b->create<equeue::GetCompOp>(comp->result(0), std::string("DMA"),
                                     ctx.dmaType());
    };
    exemplars["equeue.create_connection"] = [&] {
        b->create<equeue::CreateConnectionOp>(std::string("Streaming"),
                                              int64_t{4});
    };

    // equeue data movement ----------------------------------------------
    exemplars["equeue.alloc"] = [&] { buffer(mem()); };
    exemplars["equeue.dealloc"] = [&] {
        b->create<equeue::DeallocOp>(buffer(mem()));
    };
    // read/write with an explicit connection (the optional-operand form;
    // the plain form rides along in the launch exemplar).
    exemplars["equeue.read"] = [&] {
        ir::Value conn = b->create<equeue::CreateConnectionOp>(
                              std::string("Window"), int64_t{0})
                             ->result(0);
        b->create<equeue::ReadOp>(buffer(mem()), conn,
                                  std::vector<ir::Value>{});
    };
    exemplars["equeue.write"] = [&] {
        ir::Value conn = b->create<equeue::CreateConnectionOp>(
                              std::string("Streaming"), int64_t{8})
                             ->result(0);
        ir::Value buf = buffer(mem());
        auto data = b->create<equeue::ReadOp>(buf, ir::Value(),
                                              std::vector<ir::Value>{});
        b->create<equeue::WriteOp>(data->result(0), buf, conn,
                                   std::vector<ir::Value>{});
    };
    exemplars["equeue.stream_read"] = [&] {
        auto s = b->create<equeue::CreateStreamOp>(32u);
        b->create<equeue::StreamReadOp>(s->result(0), int64_t{4}, 32u);
    };
    exemplars["equeue.stream_write"] = [&] {
        auto s = b->create<equeue::CreateStreamOp>(32u);
        ir::Value buf = buffer(mem());
        auto data = b->create<equeue::ReadOp>(buf, ir::Value(),
                                              std::vector<ir::Value>{});
        b->create<equeue::StreamWriteOp>(data->result(0), s->result(0));
    };

    // equeue control ------------------------------------------------------
    exemplars["equeue.control_start"] = [&] {
        b->create<equeue::ControlStartOp>();
    };
    exemplars["equeue.control_and"] = [&] {
        ir::Value e1 = b->create<equeue::ControlStartOp>()->result(0);
        ir::Value e2 = b->create<equeue::ControlStartOp>()->result(0);
        b->create<equeue::ControlAndOp>(std::vector<ir::Value>{e1, e2});
    };
    exemplars["equeue.control_or"] = [&] {
        ir::Value e1 = b->create<equeue::ControlStartOp>()->result(0);
        ir::Value e2 = b->create<equeue::ControlStartOp>()->result(0);
        b->create<equeue::ControlOrOp>(std::vector<ir::Value>{e1, e2});
    };
    exemplars["equeue.launch"] = [&] { emitLaunch(); };
    exemplars["equeue.return"] = [&] { emitLaunch(); };
    exemplars["equeue.await"] = [&] { emitLaunch(); };
    exemplars["equeue.memcpy"] = [&] {
        ir::Value m = mem();
        ir::Value src = buffer(m);
        ir::Value dst = buffer(m);
        ir::Value dma = b->create<equeue::CreateDmaOp>()->result(0);
        ir::Value dep = b->create<equeue::ControlStartOp>()->result(0);
        b->create<equeue::MemcpyOp>(dep, src, dst, dma);
    };

    // equeue extension ----------------------------------------------------
    exemplars["equeue.op"] = [&] {
        ir::Value buf = buffer(mem());
        auto data = b->create<equeue::ReadOp>(buf, ir::Value(),
                                              std::vector<ir::Value>{});
        b->create<equeue::ExternOp>(
            std::string("mac4"), std::vector<ir::Value>{data->result(0)},
            std::vector<ir::Type>{ctx.i32Type()});
    };
    return exemplars;
}

TEST_F(RegistryRoundTripTest, EveryRegisteredOpHasAnExemplarThatRoundTrips)
{
    std::map<std::string, Emit> exemplars = exemplarTable();

    // ---- drive from the registry, not the table ------------------------
    std::vector<std::string> names = ctx.registeredOpNames();
    ASSERT_FALSE(names.empty());
    // Both directions must hold: a stale exemplar for a renamed or
    // removed op is as much a sync failure as a missing one.
    for (const auto &[name, emit] : exemplars)
        EXPECT_NE(ctx.lookupOp(name), nullptr)
            << "exemplar '" << name
            << "' refers to an op that is no longer registered; remove "
               "or rename it";
    for (const std::string &name : names) {
        auto it = exemplars.find(name);
        ASSERT_NE(it, exemplars.end())
            << "op '" << name
            << "' is registered but has no round-trip exemplar; add one "
               "to test_roundtrip_registry.cc";
        resetModule();
        it->second();
        // The op under test must actually be present in its exemplar.
        ASSERT_NE(firstOp(name), nullptr)
            << "exemplar for '" << name << "' never created the op";
        EXPECT_EQ(module->verify(), "") << "exemplar for '" << name << "'";
        {
            SCOPED_TRACE("round-tripping exemplar for " + name);
            test::roundTrip(ctx, module.get());
        }
    }
}

TEST_F(RegistryRoundTripTest, EveryRegisteredOpRejectsWhatItsSignatureForbids)
{
    std::map<std::string, Emit> exemplars = exemplarTable();
    for (const std::string &name : ctx.registeredOpNames()) {
        SCOPED_TRACE(name);
        const ir::OpSignature &sig = *ctx.lookupOp(name)->signature;
        // Rebuild the exemplar for every mutation, plus spare values of
        // three kinds to mutate with.
        std::vector<ir::Value> spares;
        auto fresh = [&] {
            resetModule();
            exemplars.at(name)();
            spares = {
                b->create<arith::ConstantOp>(int64_t{1}, ctx.i32Type())
                    ->result(0),
                b->create<equeue::ControlStartOp>()->result(0),
                b->create<equeue::CreateProcOp>(std::string("MAC"))
                    ->result(0)};
            return firstOp(name);
        };
        unsigned mutations = 0;
        auto expectRejected = [&](const std::string &mutation) {
            ++mutations;
            std::string err = module->verify();
            EXPECT_NE(err.find("'" + name + "'"), std::string::npos)
                << mutation << " verified as '" << err << "'";
        };

        // The operand counts the signature admits: a rest group takes
        // any number from its minimum up; every other group's count is
        // fixed by the op's own attributes.
        ir::Operation *op = fresh();
        const unsigned n = static_cast<unsigned>(op->numOperands());
        unsigned least = n;
        bool bounded = true;
        std::vector<ir::KindMask> mask_of(n);
        for (unsigned g = 0; g < sig.numOperandGroups; ++g) {
            const ir::ValueGroup &group = sig.operandGroups[g];
            ir::GroupBounds at = ir::operandGroup(sig, *op, g);
            for (unsigned i = at.begin; i < at.end; ++i)
                mask_of[i] = group.kinds;
            if (group.count == ir::GroupCount::Rest) {
                bounded = false;
                least = n - at.size() + static_cast<unsigned>(group.min);
            }
        }

        if (n > 0 && n - 1 < least) {
            op = fresh();
            op->eraseOperand(n - 1);
            expectRejected("dropping the last operand");
        }
        if (bounded) {
            op = fresh();
            op->appendOperand(spares[0]);
            expectRejected("an extra operand");
        }
        for (unsigned i = 0; i < n; ++i) {
            if (mask_of[i] == ir::kAnyKind)
                continue;
            op = fresh();
            auto bad = std::find_if(spares.begin(), spares.end(),
                                    [&](ir::Value v) {
                                        return !(mask_of[i] &
                                                 ir::kinds(v.type().kind()));
                                    });
            ASSERT_NE(bad, spares.end());
            op->setOperand(i, *bad);
            expectRejected("operand " + std::to_string(i) + " as " +
                           bad->type().str());
        }
        for (unsigned a = 0; a < sig.numAttrs; ++a) {
            const ir::AttrSpec &spec = sig.attrSpecs[a];
            if (!spec.required)
                continue;
            op = fresh();
            op->removeAttr(spec.name);
            expectRejected(std::string("removing '") + spec.name + "'");
            op = fresh();
            op->setAttr(spec.name, spec.kinds & ir::kStringAttr
                                       ? ir::Attribute::integer(1)
                                       : ir::Attribute::string("x"));
            expectRejected(std::string("mistyping '") + spec.name + "'");
        }

        // Only an op that takes any number of operands of any kind and
        // requires no attribute escapes every mutation.
        bool constrained = bounded || sig.numAttrs > 0;
        for (unsigned i = 0; i < n; ++i)
            constrained |= mask_of[i] != ir::kAnyKind;
        EXPECT_TRUE(!constrained || mutations > 0)
            << "no mutation applied to a constrained op";
    }
}

} // namespace
