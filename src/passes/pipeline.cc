#include "passes/pipeline.hh"

#include "base/logging.hh"
#include "dialects/equeue.hh"
#include "dialects/linalg.hh"
#include "passes/passes.hh"
#include "systolic/generator.hh"

namespace eq {
namespace passes {

std::string
stageName(Stage s)
{
    switch (s) {
      case Stage::Linalg:
        return "Linalg";
      case Stage::Affine:
        return "Affine";
      case Stage::Reassign:
        return "Reassign";
      case Stage::Systolic:
        return "Systolic";
    }
    return "?";
}

ir::OwningOpRef
buildConvModule(ir::Context &ctx, const scalesim::Config &cfg)
{
    ir::OwningOpRef module = ir::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(&module->region(0).front());
    using ir::Value;

    auto host = b.create<equeue::CreateProcOp>(std::string("ARMr5"));
    host->setAttr(kTagAttr, ir::Attribute::string("host"));
    auto sram = b.create<equeue::CreateMemOp>(
        std::string("SRAM"), std::vector<int64_t>{1 << 20}, 32u, 4u);
    sram->setAttr(kTagAttr, ir::Attribute::string("sram"));
    auto dma = b.create<equeue::CreateDmaOp>();
    dma->setAttr(kTagAttr, ir::Attribute::string("dma"));
    b.create<equeue::CreateCompOp>(
        std::string("Host SRAM DMA"),
        std::vector<Value>{host->result(0), sram->result(0),
                           dma->result(0)});

    auto alloc = [&](std::vector<int64_t> shape, const char *tag) {
        auto buf = b.create<equeue::AllocOp>(sram->result(0),
                                             std::move(shape), 32u);
        buf->setAttr(kTagAttr, ir::Attribute::string(tag));
        return buf->result(0);
    };
    Value ifmap = alloc({cfg.c, cfg.h, cfg.w}, "ifmap");
    Value weight = alloc({cfg.n, cfg.c, cfg.fh, cfg.fw}, "weight");
    Value ofmap = alloc({cfg.n, int64_t(cfg.eh()), int64_t(cfg.ew())},
                        "ofmap");
    b.create<linalg::ConvOp>(ifmap, weight, ofmap);
    return module;
}

namespace {

/** Final stage: replace the module with the systolic model emitted from
 *  the same reusable building blocks the generator uses; per the paper,
 *  the pass-produced model does not include the final cool-down. */
class SystolicConvertPass : public ir::Pass {
  public:
    explicit SystolicConvertPass(const scalesim::Config &cfg)
        : Pass("systolic-convert"), _cfg(cfg)
    {}

    std::string
    runOnModule(ir::Operation *module) override
    {
        // Drop the scalar-core program: the systolic structure replaces
        // both the structure and the control flow.
        ir::Block &top = module->region(0).front();
        std::vector<ir::Operation *> ops(top.begin(), top.end());
        for (auto it = ops.rbegin(); it != ops.rend(); ++it)
            (*it)->erase();
        systolic::EmitOptions opts;
        opts.skipFinalDrain = true;
        systolic::emitSystolicInto(module, _cfg, opts);
        return "";
    }

  private:
    scalesim::Config _cfg;
};

} // namespace

std::string
lowerConvModule(ir::Operation *module, Stage stage,
                const scalesim::Config &cfg)
{
    ir::PassManager pm;
    if (stage == Stage::Systolic) {
        pm.add<SystolicConvertPass>(cfg);
        return pm.run(module);
    }
    if (stage >= Stage::Affine) {
        pm.add<ConvertLinalgToAffinePass>();
        pm.add<EQueueReadWritePass>();
    }
    if (stage >= Stage::Reassign) {
        pm.add<AllocateMemoryPass>("Register", std::vector<int64_t>{1},
                                   32u, 1u, "acc");
        pm.add<ReassignBufferPass>("ofmap", "acc");
    }
    pm.add<LaunchPass>("host", "main");
    if (stage >= Stage::Reassign) {
        // Write the accumulator back to the SRAM ofmap when done.
        pm.add<MemcpyPass>("acc", "ofmap", "dma", "main",
                           /*before=*/false);
    }
    return pm.run(module);
}

ir::OwningOpRef
buildConvAtStage(ir::Context &ctx, Stage stage,
                 const scalesim::Config &cfg)
{
    ir::OwningOpRef module = buildConvModule(ctx, cfg);
    std::string err = lowerConvModule(module.get(), stage, cfg);
    if (!err.empty())
        eq_fatal("pipeline failed: ", err);
    return module;
}

} // namespace passes
} // namespace eq
