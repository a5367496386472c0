/**
 * @file
 * --split-launch: split launch bodies at `eq.split`-tagged ops into a
 * dependency-chained sequence of launches. Values crossing a split point
 * flow through the earlier launch's return values, preserving SSA.
 */

#include <set>

#include "base/logging.hh"
#include "dialects/equeue.hh"
#include "ir/builder.hh"
#include "passes/passes.hh"

namespace eq {
namespace passes {

using ir::OpBuilder;
using ir::Value;

namespace {

constexpr const char *kSplitAttr = "eq.split";

/** True when any result of @p op still has uses. */
bool
hasDanglingResults(ir::Operation *op)
{
    for (Value r : op->results())
        if (r.hasUses())
            return true;
    return false;
}

/** Split one launch; returns an error string or "". */
std::string
splitLaunch(ir::Operation *launch_op)
{
    equeue::LaunchOp launch(launch_op);
    ir::Block &body = launch.body();

    // Partition body ops into segments at eq.split markers.
    std::vector<std::vector<ir::Operation *>> segments(1);
    for (ir::Operation *op : body) {
        if (op->attr(kSplitAttr) && !segments.back().empty())
            segments.push_back({});
        op->removeAttr(kSplitAttr);
        segments.back().push_back(op);
    }
    if (segments.size() < 2)
        return "";

    // The original terminator stays with the last segment.
    OpBuilder b(launch_op->context());
    b.setInsertionPoint(launch_op);

    // Map original block arguments back to the captured values (the new
    // launches use implicit capture).
    auto captured = launch.captured();
    for (size_t i = 0; i < captured.size(); ++i)
        body.argument(static_cast<unsigned>(i))
            .replaceAllUsesWith(captured[i]);

    Value prev_done;
    std::vector<Value> deps = launch.deps();
    ir::Operation *final_launch = nullptr;

    for (size_t s = 0; s < segments.size(); ++s) {
        bool last = s + 1 == segments.size();
        // Values defined in this segment and used later cross the split:
        // they become return values of this segment's launch.
        std::set<ir::ValueImpl *> defined;
        for (ir::Operation *op : segments[s])
            for (Value r : op->results())
                defined.insert(r.impl());
        std::vector<Value> crossing;
        for (size_t later = s + 1; later < segments.size(); ++later) {
            for (ir::Operation *op : segments[later]) {
                op->walk([&](ir::Operation *inner) {
                    for (Value v : inner->operands()) {
                        if (defined.count(v.impl()) &&
                            std::find(crossing.begin(), crossing.end(),
                                      v) == crossing.end())
                            crossing.push_back(v);
                    }
                });
            }
        }

        std::vector<ir::Type> ret_types;
        for (Value v : crossing)
            ret_types.push_back(v.type());
        // The last segment keeps the original return's values.
        ir::Operation *orig_return = nullptr;
        if (last) {
            orig_return = segments[s].back();
            if (!ir::isa<equeue::ReturnOp>(orig_return))
                orig_return = nullptr;
            if (orig_return) {
                ret_types.clear();
                for (Value v : orig_return->operands())
                    ret_types.push_back(v.type());
            }
        }

        std::vector<Value> seg_deps =
            s == 0 ? deps : std::vector<Value>{prev_done};
        auto new_launch = b.create<equeue::LaunchOp>(
            seg_deps, launch.proc(), std::vector<Value>{}, ret_types);
        equeue::LaunchOp nl(new_launch.op());
        for (ir::Operation *op : segments[s]) {
            if (last && op == orig_return)
                continue;
            if (!last && ir::isa<equeue::ReturnOp>(op))
                continue;
            op->remove();
            nl.body().push_back(op);
        }
        {
            OpBuilder rb(launch_op->context());
            rb.setInsertionPointToEnd(&nl.body());
            if (last && orig_return) {
                std::vector<Value> rets = orig_return->operands();
                rb.create<equeue::ReturnOp>(rets);
            } else {
                rb.create<equeue::ReturnOp>(last ? std::vector<Value>{}
                                                 : crossing);
            }
        }
        // Redirect crossing uses in later segments to our results.
        if (!last) {
            for (size_t k = 0; k < crossing.size(); ++k) {
                Value repl =
                    new_launch->result(static_cast<unsigned>(k) + 1);
                auto uses = crossing[k].uses().toVector();
                for (auto &[user, idx] : uses) {
                    // Only redirect uses that now live outside nl.
                    ir::Operation *anc = user;
                    bool inside = false;
                    while (anc) {
                        if (anc == new_launch.op()) {
                            inside = true;
                            break;
                        }
                        anc = anc->parentOp();
                    }
                    if (!inside)
                        user->setOperand(idx, repl);
                }
            }
        }
        prev_done = new_launch->result(0);
        final_launch = new_launch.op();
    }

    // Rewire the original launch's results.
    launch_op->result(0).replaceAllUsesWith(final_launch->result(0));
    for (unsigned r = 1; r < launch_op->numResults(); ++r)
        launch_op->result(r).replaceAllUsesWith(final_launch->result(r));
    if (hasDanglingResults(launch_op))
        return "internal: dangling results after split";
    launch_op->erase();
    return "";
}

} // namespace

std::string
SplitLaunchPass::runOnModule(ir::Operation *module)
{
    std::vector<ir::Operation *> launches;
    module->walk([&](ir::Operation *op) {
        if (!ir::isa<equeue::LaunchOp>(op))
            return;
        bool has_split = false;
        for (ir::Block &block : op->region(0))
            for (ir::Operation *inner : block)
                if (inner->attr("eq.split"))
                    has_split = true;
        if (has_split)
            launches.push_back(op);
    });
    for (ir::Operation *op : launches) {
        std::string err = splitLaunch(op);
        if (!err.empty())
            return err;
    }
    return "";
}

} // namespace passes
} // namespace eq
