#include "ir/operation.hh"

#include <algorithm>
#include <new>
#include <type_traits>

#include "base/logging.hh"

namespace eq {
namespace ir {

// Results, block arguments and operand slots are freed with their
// storage, without running destructors.
static_assert(std::is_trivially_destructible_v<ValueImpl> &&
              std::is_trivially_destructible_v<OpOperand>);

namespace {

/** Move an operand slot to @p to, pointing its use-list neighbours
 *  (or its value's list ends) at the new address. */
void
moveOperand(OpOperand *from, OpOperand *to)
{
    *to = *from;
    *from = OpOperand{};
    ValueImpl *v = to->value;
    if (!v)
        return;
    (to->prevUse ? to->prevUse->nextUse : v->firstUse) = to;
    (to->nextUse ? to->nextUse->prevUse : v->lastUse) = to;
}

} // namespace

// ---------------------------------------------------------------------------
// Value

void
Value::replaceAllUsesWith(Value other) const
{
    eq_assert(_impl, "RAUW on null value");
    eq_assert(other, "RAUW with null value");
    if (other == *this)
        return;
    if (_impl->firstUse)
        _impl->firstUse->owner->context().noteIrChange();
    // Oldest use first, so the uses keep their order on @p other.
    while (OpOperand *use = _impl->firstUse) {
        _impl->detach(use);
        other.impl()->attach(use);
    }
}

void
Value::setType(Type t) const
{
    _impl->type = t;
    if (_impl->defOp)
        _impl->defOp->context().noteIrChange();
    else
        _impl->ownerBlock->noteIrChange();
}

// ---------------------------------------------------------------------------
// Operation

Region *
Operation::regionStorage() const
{
    return reinterpret_cast<Region *>(resultStorage() + _numResults);
}

OpOperand *
Operation::inlineOperandStorage() const
{
    return reinterpret_cast<OpOperand *>(regionStorage() + _numRegions);
}

NamedAttr *
Operation::inlineAttrStorage() const
{
    return reinterpret_cast<NamedAttr *>(inlineOperandStorage() +
                                         _inlineOperands);
}

namespace {

size_t
opBytes(unsigned results, unsigned regions, unsigned operands,
        unsigned attrs)
{
    return sizeof(Operation) + results * sizeof(ValueImpl) +
           regions * sizeof(Region) + operands * sizeof(OpOperand) +
           attrs * sizeof(NamedAttr);
}

} // namespace

size_t
Operation::storageBytes() const
{
    return opBytes(_numResults, _numRegions, _inlineOperands, _inlineAttrs);
}

Operation::Operation(Context &ctx, std::string_view name,
                     unsigned num_results, unsigned num_regions,
                     unsigned num_operands, unsigned num_attrs)
    : _ctx(&ctx), _id(ctx.nextOperationId()),
      _opId(ctx.internOpName(name)), _numResults(num_results),
      _numRegions(num_regions), _operandCapacity(num_operands),
      _inlineOperands(num_operands), _attrCapacity(num_attrs),
      _inlineAttrs(num_attrs)
{
    _name = &ctx.opName(_opId);
    _operands = inlineOperandStorage();
    _attrs = inlineAttrStorage();
}

Operation *
Operation::create(Context &ctx, std::string_view name,
                  TypeRange result_types, ValueRange operands,
                  AttrView attrs, unsigned num_regions)
{
    auto num_results = static_cast<unsigned>(result_types.size());
    auto num_operands = static_cast<unsigned>(operands.size());
    auto num_attrs = static_cast<unsigned>(attrs.size());
    const size_t bytes =
        opBytes(num_results, num_regions, num_operands, num_attrs);
    IrStore &store = ctx.irStore();
    void *mem = store.allocate(bytes);
    Operation *op = nullptr;
    try {
        // The steps that can throw (a new op name, a long string
        // attribute) come before the op has a use or a region, so a
        // failure gives its block back and the store can still rewind.
        op = new (mem) Operation(ctx, name, num_results, num_regions,
                                 num_operands, num_attrs);
        for (const NamedAttr &a : attrs) {
            new (&op->_attrs[op->_numAttrs]) NamedAttr(a);
            ++op->_numAttrs;
        }
    } catch (...) {
        for (unsigned i = 0; op && i < op->_numAttrs; ++i)
            op->_attrs[i].~NamedAttr();
        store.deallocate(mem, bytes);
        throw;
    }
    ValueImpl *results = op->resultStorage();
    for (unsigned i = 0; i < num_results; ++i) {
        auto *res = new (&results[i]) ValueImpl();
        res->type = result_types[i];
        res->defOp = op;
        res->index = i;
    }
    Region *regions = op->regionStorage();
    for (unsigned i = 0; i < num_regions; ++i)
        new (&regions[i]) Region(op);
    for (unsigned i = 0; i < num_operands; ++i) {
        Value v = operands[i];
        eq_assert(v, "appending null operand to ", op->name());
        auto *slot = new (&op->_operands[i]) OpOperand();
        slot->owner = op;
        v.impl()->attach(slot);
    }
    op->_numOperands = num_operands;
    // New uses of existing values are a change to the IR they belong to.
    ctx.noteIrChange();
    return op;
}

Operation::~Operation()
{
    Region *regions = regionStorage();
    for (unsigned i = 0; i < _numRegions; ++i)
        regions[i].~Region();
    for (unsigned i = 0; i < _numAttrs; ++i)
        _attrs[i].~NamedAttr();
    IrStore &store = _ctx->irStore();
    if (_operands != inlineOperandStorage())
        store.deallocate(_operands, _operandCapacity * sizeof(OpOperand));
    if (_attrs != inlineAttrStorage())
        store.deallocate(_attrs, _attrCapacity * sizeof(NamedAttr));
}

void
Operation::destroyTree(Operation *op)
{
    // A later op may get this one's address: the bump keeps the verify
    // memo from taking it for the op it remembers.
    op->_ctx->noteIrChange();
    // Passes are responsible for RAUW-ing before erasing: a use left
    // behind would dangle.
    ValueImpl *results = op->resultStorage();
    for (unsigned i = 0; i < op->_numResults; ++i) {
        eq_assert(!results[i].firstUse, "destroying op '", op->name(),
                  "' with live uses");
    }
    Region *regions = op->regionStorage();
    for (unsigned r = 0; r < op->_numRegions; ++r)
        for (Block &block : regions[r])
            block.destroyContents();
    IrStore &store = op->_ctx->irStore();
    const size_t bytes = op->storageBytes();
    op->~Operation();
    store.deallocate(op, bytes);
}

void
Operation::dropAllReferences()
{
    for (unsigned i = 0; i < _numOperands; ++i) {
        OpOperand &slot = _operands[i];
        if (slot.value)
            slot.value->detach(&slot);
    }
    Region *regions = regionStorage();
    for (unsigned r = 0; r < _numRegions; ++r)
        for (Block &block : regions[r])
            block.dropAllReferences();
}

std::string
Operation::dialect() const
{
    auto dot = name().find('.');
    return dot == std::string::npos ? std::string() : name().substr(0, dot);
}

std::string
Operation::shortName() const
{
    auto dot = name().find('.');
    return dot == std::string::npos ? name() : name().substr(dot + 1);
}

void
Operation::operandOutOfRange(unsigned i) const
{
    eq_assert(i < _numOperands, "operand index ", i, " out of range in ",
              name());
    std::abort();
}

void
Operation::resultOutOfRange(unsigned i) const
{
    eq_assert(i < _numResults, "result index ", i, " out of range in ",
              name());
    std::abort();
}

void
Operation::setOperand(unsigned i, Value v)
{
    eq_assert(i < _numOperands, "operand index out of range");
    eq_assert(v, "setting null operand");
    OpOperand &slot = _operands[i];
    if (slot.value)
        slot.value->detach(&slot);
    v.impl()->attach(&slot);
    _ctx->noteIrChange();
}

std::vector<Value>
Operation::operands() const
{
    std::vector<Value> out;
    out.reserve(_numOperands);
    for (unsigned i = 0; i < _numOperands; ++i)
        out.emplace_back(_operands[i].value);
    return out;
}

void
Operation::appendOperand(Value v)
{
    eq_assert(v, "appending null operand to ", name());
    if (_numOperands == _operandCapacity) {
        unsigned cap = std::max(4u, 2 * _operandCapacity);
        IrStore &store = _ctx->irStore();
        auto *grown = static_cast<OpOperand *>(
            store.allocate(cap * sizeof(OpOperand)));
        for (unsigned i = 0; i < cap; ++i)
            new (&grown[i]) OpOperand();
        for (unsigned i = 0; i < _numOperands; ++i)
            moveOperand(&_operands[i], &grown[i]);
        if (_operands != inlineOperandStorage())
            store.deallocate(_operands,
                             _operandCapacity * sizeof(OpOperand));
        _operands = grown;
        _operandCapacity = cap;
    }
    OpOperand *slot = new (&_operands[_numOperands++]) OpOperand();
    slot->owner = this;
    v.impl()->attach(slot);
    _ctx->noteIrChange();
}

void
Operation::eraseOperand(unsigned i)
{
    eq_assert(i < _numOperands, "operand index out of range");
    OpOperand &slot = _operands[i];
    if (slot.value)
        slot.value->detach(&slot);
    // Shift the rest down; each keeps its place in its use list and so
    // reads as one index lower.
    for (unsigned j = i + 1; j < _numOperands; ++j)
        moveOperand(&_operands[j], &_operands[j - 1]);
    --_numOperands;
    _ctx->noteIrChange();
}

std::vector<Value>
Operation::results()
{
    std::vector<Value> out;
    out.reserve(_numResults);
    for (unsigned i = 0; i < _numResults; ++i)
        out.emplace_back(&resultStorage()[i]);
    return out;
}

void
Operation::setAttr(std::string_view name, Attribute a)
{
    _ctx->noteIrChange();
    if (const Attribute *old = attrs().lookup(name)) {
        *const_cast<Attribute *>(old) = std::move(a);
        return;
    }
    if (_numAttrs == _attrCapacity)
        growAttrs();
    new (&_attrs[_numAttrs++]) NamedAttr(name, std::move(a));
}

void
Operation::growAttrs()
{
    unsigned cap = std::max(4u, 2 * _attrCapacity);
    IrStore &store = _ctx->irStore();
    auto *grown =
        static_cast<NamedAttr *>(store.allocate(cap * sizeof(NamedAttr)));
    for (unsigned i = 0; i < _numAttrs; ++i) {
        new (&grown[i]) NamedAttr(std::move(_attrs[i]));
        _attrs[i].~NamedAttr();
    }
    if (_attrs != inlineAttrStorage())
        store.deallocate(_attrs, _attrCapacity * sizeof(NamedAttr));
    _attrs = grown;
    _attrCapacity = cap;
}

void
Operation::removeAttr(std::string_view name)
{
    _ctx->noteIrChange();
    for (unsigned i = 0; i < _numAttrs; ++i) {
        if (_attrs[i].first != name)
            continue;
        std::move(_attrs + i + 1, _attrs + _numAttrs, _attrs + i);
        _attrs[--_numAttrs].~NamedAttr();
        return;
    }
}

int64_t
Operation::intAttr(std::string_view name) const
{
    const Attribute *a = attrs().lookup(name);
    eq_assert(a && a->isInt(), "op '", this->name(), "' missing int attr '",
              name, "'");
    return a->asInt();
}

int64_t
Operation::intAttrOr(std::string_view name, int64_t dflt) const
{
    const Attribute *a = attrs().lookup(name);
    return a && a->isInt() ? a->asInt() : dflt;
}

const std::string &
Operation::strAttr(std::string_view name) const
{
    const Attribute *a = attrs().lookup(name);
    eq_assert(a && a->isString(), "op '", this->name(),
              "' missing string attr '", name, "'");
    return a->asString();
}

Region &
Operation::region(unsigned i)
{
    eq_assert(i < _numRegions, "region index out of range in ", name());
    return regionStorage()[i];
}

const Region &
Operation::region(unsigned i) const
{
    eq_assert(i < _numRegions, "region index out of range in ", name());
    return regionStorage()[i];
}

Operation *
Operation::parentOp() const
{
    return _block ? _block->parentOp() : nullptr;
}

void
Operation::remove()
{
    if (_block)
        _block->remove(this);
}

void
Operation::erase()
{
    remove();
    dropAllReferences();
    destroyTree(this);
}

void
Operation::moveBefore(Operation *other)
{
    eq_assert(other && other->block(), "moveBefore needs an attached op");
    if (other == this)
        return;
    remove();
    other->block()->insert(Block::iterator(other), this);
}

void
Operation::moveToEnd(Block *target)
{
    remove();
    target->push_back(this);
}

Operation *
Operation::clone(std::map<ValueImpl *, Value> &mapping) const
{
    SmallVector<Type, 4> result_types;
    for (unsigned i = 0; i < _numResults; ++i)
        result_types.push_back(resultStorage()[i].type);
    SmallVector<Value, 8> operands;
    for (unsigned i = 0; i < _numOperands; ++i) {
        ValueImpl *impl = _operands[i].value;
        auto it = mapping.find(impl);
        operands.push_back(it != mapping.end() ? it->second : Value(impl));
    }
    Operation *copy = Operation::create(*_ctx, name(), result_types,
                                        operands, attrs(), _numRegions);
    for (unsigned i = 0; i < _numResults; ++i)
        mapping[&resultStorage()[i]] = copy->result(i);
    for (unsigned r = 0; r < _numRegions; ++r) {
        for (Block &block : region(r)) {
            Block *new_block = copy->region(r).addBlock();
            for (unsigned a = 0; a < block.numArguments(); ++a) {
                Value new_arg =
                    new_block->addArgument(block.argument(a).type());
                mapping[block.argument(a).impl()] = new_arg;
            }
            for (Operation *inner : block)
                new_block->push_back(inner->clone(mapping));
        }
    }
    return copy;
}

void
Operation::walk(const std::function<void(Operation *)> &fn)
{
    // Read before the callback: it may erase this op (when it has no
    // regions) or move it.
    unsigned num_regions = _numRegions;
    fn(this);
    for (unsigned r = 0; r < num_regions; ++r) {
        for (Block &block : regionStorage()[r]) {
            for (Operation *op = block.front(); op;) {
                Operation *next = op->_next;
                op->walk(fn);
                op = next;
            }
        }
    }
}

std::string
Operation::verify()
{
    if (_ctx->_verifiedOp == this &&
        _ctx->_verifiedGeneration == _ctx->_irGeneration)
        return "";
    const uint64_t generation = _ctx->_irGeneration;
    std::string err;
    if (verifyTree(err)) {
        _ctx->_verifiedOp = this;
        _ctx->_verifiedGeneration = generation;
    }
    return err;
}

bool
Operation::verifyTree(std::string &err)
{
    // Structural checks first.
    for (unsigned i = 0; i < _numOperands; ++i) {
        if (!_operands[i].value) {
            err = "op '" + name() + "' has null operand";
            return false;
        }
    }
    const OpInfo *info = _ctx->lookupOp(_opId);
    if (!info) {
        if (!_ctx->allowUnregistered()) {
            err = "unregistered operation '" + name() + "'";
            return false;
        }
    } else {
        // The diagnostic is built only on failure.
        OperandGroups groups;
        if (!signatureMatches(*info->signature, *this, &groups))
            err = checkSignature(*info->signature, *this);
        else if (info->verify)
            err = info->verify(this, groups);
        if (!err.empty()) {
            err = "op '" + name() + "': " + err;
            return false;
        }
    }
    // Verify nested ops.
    for (unsigned r = 0; r < _numRegions; ++r)
        for (Block &block : regionStorage()[r])
            for (Operation *op : block)
                if (!op->verifyTree(err))
                    return false;
    return true;
}

// ---------------------------------------------------------------------------
// Block

Block::~Block()
{
    dropAllReferences();
    destroyContents();
}

void
Block::dropAllReferences()
{
    for (Operation *op = _first; op; op = op->_next)
        op->dropAllReferences();
}

void
Block::destroyContents()
{
    for (Operation *op = _first; op;) {
        Operation *next = op->_next;
        Operation::destroyTree(op);
        op = next;
    }
    _first = _last = nullptr;
    _size = 0;
    for (ArgChunk *chunk = _argsHead; chunk;) {
        ArgChunk *next = chunk->next;
        store().deallocate(chunk, sizeof(ArgChunk) +
                                      chunk->capacity * sizeof(ValueImpl));
        chunk = next;
    }
    _argsHead = _argsTail = nullptr;
    _numArgs = 0;
}

Value
Block::addArgument(Type t)
{
    if (!_argsTail || _argsTail->size == _argsTail->capacity) {
        // Launch bodies capture up to about eight values: one chunk.
        unsigned cap = std::max(8u, _numArgs);
        void *mem =
            store().allocate(sizeof(ArgChunk) + cap * sizeof(ValueImpl));
        auto *chunk = new (mem) ArgChunk{nullptr, 0, cap};
        (_argsTail ? _argsTail->next : _argsHead) = chunk;
        _argsTail = chunk;
    }
    auto *impl = new (&_argsTail->args()[_argsTail->size++]) ValueImpl();
    impl->type = t;
    impl->ownerBlock = this;
    impl->index = _numArgs++;
    noteIrChange();
    return Value(impl);
}

Value
Block::argument(unsigned i)
{
    eq_assert(i < _numArgs, "block argument index out of range");
    ArgChunk *chunk = _argsHead;
    while (i >= chunk->size) {
        i -= chunk->size;
        chunk = chunk->next;
    }
    return Value(&chunk->args()[i]);
}

std::vector<Value>
Block::arguments()
{
    std::vector<Value> out;
    out.reserve(_numArgs);
    for (ArgChunk *chunk = _argsHead; chunk; chunk = chunk->next)
        for (unsigned i = 0; i < chunk->size; ++i)
            out.emplace_back(&chunk->args()[i]);
    return out;
}

void
Block::push_back(Operation *op)
{
    insert(end(), op);
}

Block::iterator
Block::insert(iterator where, Operation *op)
{
    eq_assert(!op->_block, "inserting an op that is already in a block");
    Operation *next = where == end() ? nullptr : *where;
    Operation *prev = next ? next->_prev : _last;
    op->_prev = prev;
    op->_next = next;
    (prev ? prev->_next : _first) = op;
    (next ? next->_prev : _last) = op;
    op->_block = this;
    ++_size;
    op->_ctx->noteIrChange();
    return iterator(op);
}

void
Block::remove(Operation *op)
{
    eq_assert(op->_block == this, "removing op not in block");
    (op->_prev ? op->_prev->_next : _first) = op->_next;
    (op->_next ? op->_next->_prev : _last) = op->_prev;
    op->_prev = op->_next = nullptr;
    op->_block = nullptr;
    --_size;
    op->_ctx->noteIrChange();
}

IrStore &
Block::store() const
{
    return _parent->parentOp()->context().irStore();
}

Block::iterator
Block::find(Operation *op)
{
    return op && op->_block == this ? iterator(op) : end();
}

Operation *
Block::parentOp() const
{
    return _parent ? _parent->parentOp() : nullptr;
}

void
Block::noteIrChange()
{
    // A block outside any op is reachable from no verified op; putting
    // it into a region is itself a change.
    if (Operation *op = parentOp())
        op->_ctx->noteIrChange();
}

// ---------------------------------------------------------------------------
// Region

Region::~Region()
{
    IrStore &store = _parent->context().irStore();
    for (Block *block = _first; block;) {
        Block *next = block->_nextBlock;
        block->~Block();
        store.deallocate(block, sizeof(Block));
        block = next;
    }
}

size_t
Region::numBlocks() const
{
    size_t n = 0;
    for (Block *block = _first; block; block = block->_nextBlock)
        ++n;
    return n;
}

Block *
Region::addBlock()
{
    Context &ctx = _parent->context();
    auto *block = new (ctx.irStore().allocate(sizeof(Block))) Block();
    block->_parent = this;
    (_last ? _last->_nextBlock : _first) = block;
    _last = block;
    ctx.noteIrChange();
    return block;
}

void
Region::takeBody(Region &other)
{
    if (!other._first)
        return;
    for (Block *block = other._first; block; block = block->_nextBlock)
        block->_parent = this;
    (_last ? _last->_nextBlock : _first) = other._first;
    _last = other._last;
    other._first = other._last = nullptr;
    _parent->context().noteIrChange();
}

Block &
Region::ensureBlock()
{
    if (!_first)
        addBlock();
    return front();
}

// ---------------------------------------------------------------------------
// OwningOpRef

void
OwningOpRef::reset()
{
    if (_op) {
        _op->dropAllReferences();
        Operation::destroyTree(_op);
        _op = nullptr;
    }
}

} // namespace ir
} // namespace eq
