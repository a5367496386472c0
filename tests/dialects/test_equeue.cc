/**
 * @file
 * Verifier and accessor unit tests for the EQueue dialect.
 */

#include "testutil.hh"

#include <functional>

#include "dialects/equeue.hh"
#include "ir/builder.hh"

namespace {

using namespace eq;

class EQueueDialectTest : public test::RegisteredModuleTest {};

TEST_F(EQueueDialectTest, StructureOpsVerify)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("MAC"));
    EXPECT_EQ(proc->verify(), "");
    EXPECT_EQ(proc.kind(), "MAC");

    auto mem = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{4096}, 32u, 4u);
    EXPECT_EQ(mem->verify(), "");
    EXPECT_EQ(mem.banks(), 4u);
    EXPECT_EQ(mem.shape(), (std::vector<int64_t>{4096}));

    auto dma = b->create<equeue::CreateDmaOp>();
    auto comp = b->create<equeue::CreateCompOp>(
        std::string("Kernel Memory DMA"),
        std::vector<ir::Value>{proc->result(0), mem->result(0),
                               dma->result(0)});
    EXPECT_EQ(comp->verify(), "");

    auto get = b->create<equeue::GetCompOp>(
        comp->result(0), std::string("DMA"), ctx.dmaType());
    EXPECT_EQ(get->verify(), "");
}

TEST_F(EQueueDialectTest, CreateCompNameCountMismatchFails)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("MAC"));
    auto comp = b->create<equeue::CreateCompOp>(
        std::string("A B"), std::vector<ir::Value>{proc->result(0)});
    EXPECT_NE(comp->verify(), "");
}

TEST_F(EQueueDialectTest, ConnectionKindChecked)
{
    auto good = b->create<equeue::CreateConnectionOp>(
        std::string("Streaming"), int64_t{32});
    EXPECT_EQ(good->verify(), "");
    auto bad = b->create<equeue::CreateConnectionOp>(
        std::string("Bogus"), int64_t{32});
    EXPECT_NE(bad->verify(), "");
}

TEST_F(EQueueDialectTest, LaunchStructure)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{64}, 32u, 1u);
    auto buf = b->create<equeue::AllocOp>(mem->result(0),
                                          std::vector<int64_t>{16}, 32u);
    auto start = b->create<equeue::ControlStartOp>();
    auto launch = b->create<equeue::LaunchOp>(
        std::vector<ir::Value>{start->result(0)}, proc->result(0),
        std::vector<ir::Value>{buf->result(0)},
        std::vector<ir::Type>{ctx.i32Type()});

    equeue::LaunchOp l(launch.op());
    EXPECT_EQ(l.numDeps(), 1u);
    EXPECT_EQ(l.deps().size(), 1u);
    EXPECT_EQ(l.proc(), proc->result(0));
    EXPECT_EQ(l.captured().size(), 1u);
    EXPECT_EQ(l.body().numArguments(), 1u);
    EXPECT_TRUE(l.done().type().isEvent());
    EXPECT_EQ(launch->numResults(), 2u);

    // Body must exist and block args mirror captured values.
    {
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&l.body());
        auto data = b->create<equeue::ReadOp>(
            l.body().argument(0), ir::Value(), std::vector<ir::Value>{});
        (void)data;
        auto c = b->create("arith.constant", {ctx.i32Type()}, {});
        c->setAttr("value", ir::Attribute::integer(0));
        b->create<equeue::ReturnOp>(std::vector<ir::Value>{c->result(0)});
    }
    EXPECT_EQ(launch->verify(), "");
}

TEST_F(EQueueDialectTest, LaunchRejectsNonEventDep)
{
    auto proc = b->create<equeue::CreateProcOp>(std::string("ARMr5"));
    auto c = b->create("arith.constant", {ctx.i32Type()}, {});
    c->setAttr("value", ir::Attribute::integer(0));
    // Hand-build a malformed launch whose dep is an i32, not an event.
    ir::AttrDict attrs;
    attrs.set("num_deps", ir::Attribute::integer(1));
    auto *bad = b->create(
        equeue::LaunchOp::opName, {ctx.eventType()},
        {c->result(0), proc->result(0)}, std::move(attrs), 1);
    bad->region(0).ensureBlock();
    EXPECT_NE(bad->verify(), "");
}

TEST_F(EQueueDialectTest, MemcpyVerifies)
{
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{64}, 32u, 1u);
    auto b0 = b->create<equeue::AllocOp>(mem->result(0),
                                         std::vector<int64_t>{16}, 32u);
    auto b1 = b->create<equeue::AllocOp>(mem->result(0),
                                         std::vector<int64_t>{16}, 32u);
    auto dma = b->create<equeue::CreateDmaOp>();
    auto start = b->create<equeue::ControlStartOp>();
    auto mc = b->create<equeue::MemcpyOp>(start->result(0), b0->result(0),
                                          b1->result(0), dma->result(0),
                                          ir::Value());
    EXPECT_EQ(mc->verify(), "");
    equeue::MemcpyOp m(mc.op());
    EXPECT_FALSE(m.hasConn());
    EXPECT_EQ(m.src(), b0->result(0));
    EXPECT_EQ(m.dst(), b1->result(0));
}

TEST_F(EQueueDialectTest, EmptyJoinsRejectedEmptyAwaitAccepted)
{
    auto start = b->create<equeue::ControlStartOp>();
    std::vector<ir::Value> one{start->result(0)};
    EXPECT_EQ(b->create<equeue::ControlAndOp>(one)->verify(), "");
    EXPECT_EQ(b->create<equeue::ControlOrOp>(one)->verify(), "");
    EXPECT_NE(b->create<equeue::ControlAndOp>(std::vector<ir::Value>{})
                  ->verify(),
              "");
    EXPECT_NE(
        b->create<equeue::ControlOrOp>(std::vector<ir::Value>{})->verify(),
        "");
    // A bare await keeps its "await every spawned event" form.
    EXPECT_EQ(b->create<equeue::AwaitOp>()->verify(), "");
}

TEST_F(EQueueDialectTest, ReadWriteConnAndIndexLayout)
{
    auto mem = b->create<equeue::CreateMemOp>(
        std::string("Register"), std::vector<int64_t>{4}, 32u, 1u);
    auto buf = b->create<equeue::AllocOp>(mem->result(0),
                                          std::vector<int64_t>{4}, 32u);
    auto conn = b->create<equeue::CreateConnectionOp>(
        std::string("Streaming"), int64_t{32});

    auto whole = b->create<equeue::ReadOp>(buf->result(0), conn->result(0),
                                           std::vector<ir::Value>{});
    EXPECT_EQ(whole->verify(), "");
    EXPECT_TRUE(equeue::ReadOp(whole.op()).hasConn());
    EXPECT_TRUE(whole->result(0).type().isTensor());

    auto idx = b->create("arith.constant", {ctx.indexType()}, {});
    idx->setAttr("value", ir::Attribute::integer(2));
    auto elem = b->create<equeue::ReadOp>(
        buf->result(0), ir::Value(),
        std::vector<ir::Value>{idx->result(0)});
    EXPECT_EQ(elem->verify(), "");
    EXPECT_TRUE(elem->result(0).type().isInteger());

    auto wr = b->create<equeue::WriteOp>(
        elem->result(0), buf->result(0), conn->result(0),
        std::vector<ir::Value>{idx->result(0)});
    EXPECT_EQ(wr->verify(), "");
    EXPECT_EQ(equeue::WriteOp(wr.op()).indices().size(), 1u);
}

TEST_F(EQueueDialectTest, StreamReadNeedsStreamAndElems)
{
    auto stream = b->create<equeue::CreateStreamOp>(32u);
    auto conn = b->create<equeue::CreateConnectionOp>(
        std::string("Streaming"), int64_t{32});
    EXPECT_EQ(b->create<equeue::StreamReadOp>(stream->result(0),
                                              int64_t{4}, 32u)
                  ->verify(),
              "");
    EXPECT_EQ(b->create<equeue::StreamReadOp>(stream->result(0),
                                              int64_t{4}, 32u,
                                              conn->result(0))
                  ->verify(),
              "");

    // No `elems`: used to verify clean, then abort the engine when it
    // read the attribute.
    ir::Type t = ctx.tensorType({4}, 32);
    auto *no_elems =
        b->create("equeue.stream_read", {t}, {stream->result(0)});
    EXPECT_NE(no_elems->verify(), "");
    EXPECT_NE(module->verify(), "");
    no_elems->erase();

    auto *no_stream = b->create("equeue.stream_read", {t}, {});
    no_stream->setAttr("elems", ir::Attribute::integer(4));
    EXPECT_NE(no_stream->verify(), "");
    auto *not_stream =
        b->create("equeue.stream_read", {t}, {conn->result(0)});
    not_stream->setAttr("elems", ir::Attribute::integer(4));
    EXPECT_NE(not_stream->verify(), "");
    auto *string_elems =
        b->create("equeue.stream_read", {t}, {stream->result(0)});
    string_elems->setAttr("elems", ir::Attribute::string("4"));
    EXPECT_NE(string_elems->verify(), "");
}

TEST_F(EQueueDialectTest, ExternOpCarriesSignature)
{
    auto op = b->create<equeue::ExternOp>(
        std::string("mac4"), std::vector<ir::Value>{},
        std::vector<ir::Type>{});
    EXPECT_EQ(op->verify(), "");
    EXPECT_EQ(equeue::ExternOp(op.op()).signature(), "mac4");
    auto *bad = b->create("equeue.op", {}, {});
    EXPECT_NE(bad->verify(), "");
}

/**
 * Modules that used to verify clean and then kill the process in the
 * engine (or, for the string bandwidth, in the verifier itself). Each
 * must now fail verify() with a diagnostic naming the op.
 */
TEST_F(EQueueDialectTest, SignatureRejectsInputsThatUsedToCrash)
{
    auto str = [](const char *s) { return ir::Attribute::string(s); };
    auto num = [](int64_t v) { return ir::Attribute::integer(v); };
    auto attrs = [](std::initializer_list<ir::AttrDict::Entry> entries) {
        ir::AttrDict d;
        for (const auto &[name, value] : entries)
            d.set(name, value);
        return d;
    };
    struct Case {
        const char *what;
        const char *op;
        std::function<void()> build;
    };
    const std::vector<Case> cases = {
        {"operand-less stream_write", "equeue.stream_write",
         [&] { b->create("equeue.stream_write", {}, {}); }},
        {"extract_comp without prefix/indices", "equeue.extract_comp",
         [&] {
             auto p = b->create<equeue::CreateProcOp>(std::string("MAC"));
             auto comp = b->create<equeue::CreateCompOp>(
                 std::string("PE_0"), std::vector<ir::Value>{p->result(0)});
             b->create("equeue.extract_comp", {ctx.procType()},
                       {comp->result(0)});
         }},
        {"create_mem without banks", "equeue.create_mem",
         [&] {
             b->create("equeue.create_mem", {ctx.memType()}, {},
                       attrs({{"kind", str("SRAM")},
                              {"shape", ir::Attribute::i64Array({64})},
                              {"data_bits", num(32)}}));
         }},
        {"create_mem with an int kind", "equeue.create_mem",
         [&] {
             b->create("equeue.create_mem", {ctx.memType()}, {},
                       attrs({{"kind", num(1)},
                              {"shape", ir::Attribute::i64Array({64})},
                              {"data_bits", num(32)},
                              {"banks", num(1)}}));
         }},
        {"create_proc with an int kind", "equeue.create_proc",
         [&] {
             b->create("equeue.create_proc", {ctx.procType()}, {},
                       attrs({{"kind", num(7)}}));
         }},
        {"get_comp with an int name", "equeue.get_comp",
         [&] {
             auto p = b->create<equeue::CreateProcOp>(std::string("MAC"));
             auto comp = b->create<equeue::CreateCompOp>(
                 std::string("PE"), std::vector<ir::Value>{p->result(0)});
             b->create("equeue.get_comp", {ctx.procType()},
                       {comp->result(0)}, attrs({{"name", num(0)}}));
         }},
        {"create_connection with a string bandwidth",
         "equeue.create_connection",
         [&] {
             b->create("equeue.create_connection", {ctx.connectionType()},
                       {},
                       attrs({{"kind", str("Streaming")},
                              {"bandwidth", str("4")}}));
         }},
        {"control_start with no result", "equeue.control_start",
         [&] { b->create("equeue.control_start", {}, {}); }},
        {"addi on !equeue.mem operands", "arith.addi",
         [&] {
             ir::Value m = b->create<equeue::CreateMemOp>(
                                std::string("SRAM"),
                                std::vector<int64_t>{64}, 32u, 1u)
                               ->result(0);
             b->create("arith.addi", {ctx.i32Type()}, {m, m});
         }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        resetModule();
        c.build();
        std::string err = module->verify();
        EXPECT_NE(err.find(std::string("'") + c.op + "'"), std::string::npos)
            << "diagnostic: '" << err << "'";
    }
}

} // namespace
