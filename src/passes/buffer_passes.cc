/**
 * @file
 * Buffer-oriented passes: equeue-read-write, allocate-buffer,
 * reassign-buffer, launch.
 */

#include "base/logging.hh"
#include "base/stringutil.hh"
#include "dialects/affine.hh"
#include "dialects/equeue.hh"
#include "dialects/memref.hh"
#include "ir/builder.hh"
#include "passes/passes.hh"

namespace eq {
namespace passes {

using ir::OpBuilder;
using ir::Value;

std::string
EQueueReadWritePass::runOnModule(ir::Operation *module)
{
    std::vector<ir::Operation *> worklist;
    module->walk([&](ir::Operation *op) {
        if (ir::isa<affine::LoadOp>(op) || ir::isa<affine::StoreOp>(op))
            worklist.push_back(op);
    });
    for (ir::Operation *op : worklist) {
        bool is_store = ir::isa<affine::StoreOp>(op);
        Value memref = is_store ? affine::StoreOp(op).memref()
                                : affine::LoadOp(op).memref();
        if (!memref.type().isBuffer())
            continue; // host memrefs stay in the affine dialect
        OpBuilder b(op->context());
        b.setInsertionPoint(op);
        if (is_store) {
            affine::StoreOp st(op);
            b.create<equeue::WriteOp>(st.value(), memref, Value(),
                                      st.indices());
        } else {
            affine::LoadOp ld(op);
            auto rd = b.create<equeue::ReadOp>(memref, Value(),
                                               ld.indices());
            op->result(0).replaceAllUsesWith(rd->result(0));
        }
        op->erase();
    }
    return "";
}

std::string
AllocateMemoryPass::runOnModule(ir::Operation *module)
{
    ir::Block &top = module->region(0).ensureBlock();
    OpBuilder b(module->context());
    if (top.empty())
        b.setInsertionPointToEnd(&top);
    else
        b.setInsertionPoint(&top, top.begin());
    auto mem = b.create<equeue::CreateMemOp>(_kind, _shape, _bits, _banks);
    auto buf = b.create<equeue::AllocOp>(mem->result(0), _shape, _bits);
    buf->setAttr(kTagAttr, ir::Attribute::string(_tag));
    return "";
}

std::string
ReassignBufferPass::runOnModule(ir::Operation *module)
{
    ir::Operation *from = findByTag(module, _from);
    ir::Operation *to = findByTag(module, _to);
    if (!from || !to)
        return "missing tagged buffer '" + (from ? _to : _from) + "'";
    Value from_buf = from->result(0);
    Value to_buf = to->result(0);
    bool same_rank =
        from_buf.type().shape() == to_buf.type().shape();

    // Replace uses; reads/writes with stale index ranks degrade to
    // whole-buffer accesses on the (typically element-sized) new buffer.
    for (auto [user, idx] : from_buf.uses().toVector()) {
        if (ir::isa<equeue::ReadOp>(user) && !same_rank) {
            equeue::ReadOp rd(user);
            OpBuilder b(user->context());
            b.setInsertionPoint(user);
            auto new_read = b.create<equeue::ReadOp>(
                to_buf, Value(), std::vector<Value>{});
            // Element loads expect a scalar; surface element 0.
            if (user->result(0).type().isInteger()) {
                auto zero = b.create("arith.constant",
                                     {b.context().indexType()}, {});
                zero->setAttr("value", ir::Attribute::integer(0));
                new_read->erase();
                auto scalar = b.create<equeue::ReadOp>(
                    to_buf, Value(),
                    std::vector<Value>{zero->result(0)});
                user->result(0).replaceAllUsesWith(scalar->result(0));
            } else {
                user->result(0).replaceAllUsesWith(new_read->result(0));
            }
            user->erase();
        } else if (ir::isa<equeue::WriteOp>(user) && !same_rank) {
            equeue::WriteOp wr(user);
            OpBuilder b(user->context());
            b.setInsertionPoint(user);
            auto zero = b.create("arith.constant",
                                 {b.context().indexType()}, {});
            zero->setAttr("value", ir::Attribute::integer(0));
            b.create<equeue::WriteOp>(
                wr.value(), to_buf, Value(),
                std::vector<Value>{zero->result(0)});
            user->erase();
        } else {
            user->setOperand(idx, to_buf);
        }
    }
    return "";
}

std::string
LaunchPass::runOnModule(ir::Operation *module)
{
    ir::Operation *proc_op = findByTag(module, _procTag);
    if (!proc_op)
        return "missing tagged processor '" + _procTag + "'";
    Value proc = proc_op->result(0);

    ir::Block &top = module->region(0).front();
    // Everything outside the structure prologue moves into the launch.
    std::vector<ir::Operation *> to_move;
    for (ir::Operation *op : top) {
        bool structural = startsWith(op->name(), "equeue.create_") ||
                          ir::isa<equeue::AllocOp>(op) ||
                          ir::isa<equeue::AddCompOp>(op) ||
                          ir::isa<equeue::GetCompOp>(op) ||
                          ir::isa<memref::AllocOp>(op);
        if (!structural)
            to_move.push_back(op);
    }
    if (to_move.empty())
        return "";

    OpBuilder b(module->context());
    b.setInsertionPoint(to_move.front());
    auto start = b.create<equeue::ControlStartOp>();
    auto launch = b.create<equeue::LaunchOp>(
        std::vector<Value>{start->result(0)}, proc,
        std::vector<Value>{}, std::vector<ir::Type>{});
    launch->setAttr(kTagAttr, ir::Attribute::string(_launchTag));
    equeue::LaunchOp l(launch.op());
    for (ir::Operation *op : to_move)
        op->moveToEnd(&l.body());
    {
        OpBuilder rb(module->context());
        rb.setInsertionPointToEnd(&l.body());
        rb.create<equeue::ReturnOp>(std::vector<Value>{});
    }
    b.setInsertionPointToEnd(&top);
    b.create<equeue::AwaitOp>(std::vector<Value>{launch->result(0)});
    return "";
}

} // namespace passes
} // namespace eq
