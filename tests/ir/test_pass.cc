/**
 * @file
 * Unit tests for Pass / PassManager sequencing, diagnostics, timing.
 */

#include "testutil.hh"

#include "ir/pass.hh"

namespace {

using namespace eq;

class PassManagerTest : public test::UnregisteredModuleTest {};

TEST_F(PassManagerTest, RunsPassesInOrder)
{
    std::vector<int> order;
    ir::PassManager pm;
    pm.add<ir::LambdaPass>("first", [&](ir::Operation *) {
        order.push_back(1);
        return std::string();
    });
    pm.add<ir::LambdaPass>("second", [&](ir::Operation *) {
        order.push_back(2);
        return std::string();
    });
    EXPECT_EQ(pm.run(module.get()), "");
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    ASSERT_EQ(pm.timings().size(), 2u);
    EXPECT_EQ(pm.timings()[0].name, "first");
}

TEST_F(PassManagerTest, StopsOnFailure)
{
    bool second_ran = false;
    ir::PassManager pm;
    pm.add<ir::LambdaPass>("boom", [](ir::Operation *) {
        return std::string("something broke");
    });
    pm.add<ir::LambdaPass>("after", [&](ir::Operation *) {
        second_ran = true;
        return std::string();
    });
    std::string err = pm.run(module.get());
    EXPECT_NE(err.find("boom"), std::string::npos);
    EXPECT_NE(err.find("something broke"), std::string::npos);
    EXPECT_FALSE(second_ran);
}

TEST(PassManagerStrictTest, VerifiesBetweenPasses)
{
    ir::Context ctx; // strict: unregistered ops fail verification
    auto module = ir::createModule(ctx);
    static constexpr ir::OpSignature kModule{{}, {}, {}, /*regions=*/1};
    ctx.registerOp({"builtin.module", &kModule});
    ir::PassManager pm;
    pm.add<ir::LambdaPass>("corrupt", [&](ir::Operation *m) {
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&m->region(0).front());
        b.create("bogus.op", {}, {});
        return std::string();
    });
    std::string err = pm.run(module.get());
    EXPECT_NE(err.find("post-verify failed"), std::string::npos);
}

} // namespace
