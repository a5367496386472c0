/**
 * @file
 * Cross-dialect registration entry point (declared in ir/context.hh).
 */

#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/equeue.hh"
#include "dialects/linalg.hh"
#include "dialects/memref.hh"
#include "ir/context.hh"

namespace eq {
namespace ir {

namespace {

constexpr OpSignature kModuleSignature{{}, {}, {}, /*regions=*/1};

} // namespace

void
registerAllDialects(Context &ctx)
{
    ctx.registerOp({"builtin.module", &kModuleSignature});
    arith::registerDialect(ctx);
    memref::registerDialect(ctx);
    affine::registerDialect(ctx);
    linalg::registerDialect(ctx);
    equeue::registerDialect(ctx);
}

} // namespace ir
} // namespace eq
