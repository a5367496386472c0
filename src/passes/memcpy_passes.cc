/**
 * @file
 * memcpy-related passes: mem-copy, memcpy-to-launch, merge-memcpy-launch.
 */

#include "base/logging.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "passes/passes.hh"

namespace eq {
namespace passes {

using ir::OpBuilder;
using ir::Value;

std::string
MemcpyPass::runOnModule(ir::Operation *module)
{
    ir::Operation *src = findByTag(module, _src);
    ir::Operation *dst = findByTag(module, _dst);
    ir::Operation *dma = findByTag(module, _dma);
    ir::Operation *launch = findByTag(module, _launch);
    if (!src || !dst || !dma || !launch)
        return "missing tagged op for mem-copy";
    OpBuilder b(module->context());
    if (_before) {
        // dep -> memcpy -> launch: the copy inherits the launch's first
        // dependency and the launch then waits on the copy.
        b.setInsertionPoint(launch);
        equeue::LaunchOp l(launch);
        Value old_dep = l.deps().front();
        auto cp = b.create<equeue::MemcpyOp>(old_dep, src->result(0),
                                             dst->result(0),
                                             dma->result(0), Value());
        launch->setOperand(0, cp->result(0));
    } else {
        // launch -> memcpy (e.g. write results back after compute).
        b.setInsertionPointAfter(launch);
        auto cp = b.create<equeue::MemcpyOp>(
            launch->result(0), src->result(0), dst->result(0),
            dma->result(0), Value());
        // Anyone already awaiting the launch should await the copy too.
        for (auto [user, idx] : launch->result(0).uses().toVector()) {
            if (ir::isa<equeue::AwaitOp>(user) && user != cp.op())
                user->setOperand(idx, cp->result(0));
        }
    }
    return "";
}

std::string
MemcpyToLaunchPass::runOnModule(ir::Operation *module)
{
    std::vector<ir::Operation *> worklist;
    module->walk([&](ir::Operation *op) {
        if (ir::isa<equeue::MemcpyOp>(op))
            worklist.push_back(op);
    });
    for (ir::Operation *op : worklist) {
        equeue::MemcpyOp mc(op);
        OpBuilder b(module->context());
        b.setInsertionPoint(op);
        auto launch = b.create<equeue::LaunchOp>(
            std::vector<Value>{mc.dep()}, mc.dma(),
            std::vector<Value>{mc.src(), mc.dst()},
            std::vector<ir::Type>{});
        {
            OpBuilder::InsertionGuard g(b);
            equeue::LaunchOp l(launch.op());
            b.setInsertionPointToEnd(&l.body());
            Value conn = mc.conn();
            auto data = b.create<equeue::ReadOp>(
                l.body().argument(0), conn, std::vector<Value>{});
            b.create<equeue::WriteOp>(data->result(0),
                                      l.body().argument(1), conn,
                                      std::vector<Value>{});
            b.create<equeue::ReturnOp>(std::vector<Value>{});
        }
        op->result(0).replaceAllUsesWith(launch->result(0));
        op->erase();
    }
    return "";
}

std::string
MergeMemcpyLaunchPass::runOnModule(ir::Operation *module)
{
    // Pattern: %e = memcpy(%d, %src, %dst, %dma);
    //          launch(... deps contain %e ..., captured contains %dst)
    // Rewrite: drop the memcpy; the launch performs the copy at the head
    // of its body (read src, write dst), gated on %d instead of %e.
    std::vector<ir::Operation *> memcpys;
    module->walk([&](ir::Operation *op) {
        if (ir::isa<equeue::MemcpyOp>(op))
            memcpys.push_back(op);
    });
    for (ir::Operation *mc_op : memcpys) {
        equeue::MemcpyOp mc(mc_op);
        // A unique launch user that both depends on the copy and
        // captures its destination buffer.
        ir::Operation *target = nullptr;
        for (auto [user, idx] : mc_op->result(0).uses()) {
            if (!ir::isa<equeue::LaunchOp>(user))
                continue;
            equeue::LaunchOp l(user);
            if (idx >= l.numDeps())
                continue;
            for (Value cap : l.captured()) {
                if (cap == mc.dst()) {
                    target = user;
                    break;
                }
            }
            if (target)
                break;
        }
        if (!target)
            continue;
        equeue::LaunchOp l(target);
        // Find the block argument aliasing the destination buffer.
        Value dst_arg;
        auto captured = l.captured();
        for (size_t i = 0; i < captured.size(); ++i)
            if (captured[i] == mc.dst())
                dst_arg = l.body().argument(static_cast<unsigned>(i));
        OpBuilder b(module->context());
        b.setInsertionPoint(&l.body(), l.body().begin());
        auto data = b.create<equeue::ReadOp>(mc.src(), Value(),
                                             std::vector<Value>{});
        b.create<equeue::WriteOp>(data->result(0), dst_arg, Value(),
                                  std::vector<Value>{});
        // Gate the launch on the copy's dependency instead.
        mc_op->result(0).replaceAllUsesWith(mc.dep());
        mc_op->erase();
    }
    return "";
}

} // namespace passes
} // namespace eq
