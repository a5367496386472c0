/**
 * @file
 * Generic textual printer for operations.
 *
 * Output grammar (round-trips through parser.cc):
 *
 *   op        ::= [results `=`] `"` name `"` `(` operands `)`
 *                 region-list? attr-dict? `:` fn-type
 *   results   ::= `%` id (`:` num-results)?
 *   operands  ::= ssa-use (`,` ssa-use)*
 *   ssa-use   ::= `%` id (`#` result-index)?
 *   region    ::= `({` block `})`
 *   attr-dict ::= `{` (name `=` attr)* `}`
 */

#include <map>
#include <ostream>
#include <sstream>

#include "base/logging.hh"
#include "ir/builder.hh"
#include "ir/operation.hh"

namespace eq {
namespace ir {

namespace {

/** Assigns stable ids to values while printing a whole op tree. */
class PrintState {
  public:
    /** Identify a value as either "%N" or "%N#k" / "%argN". */
    std::string
    useName(Value v)
    {
        ValueImpl *impl = v.impl();
        auto it = _names.find(impl);
        if (it != _names.end())
            return it->second;
        // Unknown value (printing a detached fragment): synthesise.
        std::string name = "%u" + std::to_string(_nextUnknown++);
        _names[impl] = name;
        return name;
    }

    void
    defineOpResults(Operation *op)
    {
        if (op->numResults() == 0)
            return;
        unsigned base = _nextId++;
        for (unsigned i = 0; i < op->numResults(); ++i) {
            std::string name = "%" + std::to_string(base);
            if (op->numResults() > 1)
                name += "#" + std::to_string(i);
            _names[op->result(i).impl()] = name;
        }
        _opBase[op] = base;
    }

    unsigned
    opBase(Operation *op) const
    {
        auto it = _opBase.find(op);
        eq_assert(it != _opBase.end(), "printing op before defining ids");
        return it->second;
    }

    void
    defineBlockArg(Value v)
    {
        _names[v.impl()] = "%arg" + std::to_string(_nextArgId++);
    }

  private:
    std::map<ValueImpl *, std::string> _names;
    std::map<Operation *, unsigned> _opBase;
    unsigned _nextId = 0;
    unsigned _nextArgId = 0;
    unsigned _nextUnknown = 0;
};

void printOp(std::ostream &os, Operation *op, PrintState &st, int indent);

void
printBlock(std::ostream &os, Block &block, PrintState &st, int indent)
{
    std::string pad(indent, ' ');
    if (block.numArguments() > 0) {
        os << pad << "^bb(";
        for (unsigned i = 0; i < block.numArguments(); ++i) {
            if (i)
                os << ", ";
            Value arg = block.argument(i);
            st.defineBlockArg(arg);
            os << st.useName(arg) << ": " << arg.type().str();
        }
        os << "):\n";
    }
    for (Operation *inner : block)
        printOp(os, inner, st, indent);
}

void
printOp(std::ostream &os, Operation *op, PrintState &st, int indent)
{
    std::string pad(indent, ' ');
    os << pad;
    st.defineOpResults(op);
    if (op->numResults() > 0) {
        os << "%" << st.opBase(op);
        if (op->numResults() > 1)
            os << ":" << op->numResults();
        os << " = ";
    }
    os << '"' << op->name() << "\"(";
    auto operands = op->operands();
    for (size_t i = 0; i < operands.size(); ++i) {
        if (i)
            os << ", ";
        os << st.useName(operands[i]);
    }
    os << ")";

    if (op->numRegions() > 0) {
        os << " (";
        for (unsigned r = 0; r < op->numRegions(); ++r) {
            if (r)
                os << ", ";
            os << "{\n";
            Region &region = op->region(r);
            for (Block &block : region)
                printBlock(os, block, st, indent + 2);
            os << pad << "}";
        }
        os << ")";
    }

    if (!op->attrs().empty()) {
        os << " {";
        bool first = true;
        for (const auto &[name, attr] : op->attrs()) {
            if (!first)
                os << ", ";
            first = false;
            os << name << " = " << attr.str();
        }
        os << "}";
    }

    os << " : (";
    for (size_t i = 0; i < operands.size(); ++i) {
        if (i)
            os << ", ";
        os << operands[i].type().str();
    }
    os << ") -> (";
    for (unsigned i = 0; i < op->numResults(); ++i) {
        if (i)
            os << ", ";
        os << op->result(i).type().str();
    }
    os << ")\n";
}

} // namespace

void
Operation::print(std::ostream &os) const
{
    PrintState st;
    printOp(os, const_cast<Operation *>(this), st, 0);
}

std::string
Operation::str() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

OwningOpRef
createModule(Context &ctx)
{
    Operation *mod = Operation::create(ctx, "builtin.module", {}, {}, {},
                                       /*num_regions=*/1);
    mod->region(0).ensureBlock();
    return OwningOpRef(mod);
}

} // namespace ir
} // namespace eq
