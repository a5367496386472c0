#include "ir/store.hh"

#include <cstring>
#include <new>

#include "base/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define EQ_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define EQ_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define EQ_POISON(p, n) ((void)(p), (void)(n))
#define EQ_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace eq {
namespace ir {

IrStore::~IrStore()
{
    freeChunksAfter(nullptr);
}

void *
IrStore::allocate(size_t bytes)
{
    eq_assert(bytes > 0, "empty IR allocation");
    if (bytes > kMaxClassBytes)
        return ::operator new(bytes);
    const size_t n = classBytes(bytes);
    void *&head = _free[classOf(bytes)];
    void *p = head;
    if (p) {
        EQ_UNPOISON(p, n);
        std::memcpy(&head, p, sizeof head);
    } else {
        p = carve(n); // may throw std::bad_alloc, before counting
    }
    ++_live;
    return p;
}

void
IrStore::deallocate(void *p, size_t bytes)
{
    if (bytes > kMaxClassBytes) {
        ::operator delete(p);
        return;
    }
    // A free slot holds the link to the next one of its class.
    void *&head = _free[classOf(bytes)];
    std::memcpy(p, &head, sizeof head);
    head = p;
    EQ_POISON(p, classBytes(bytes));
    if (--_live == 0)
        rewind();
}

void *
IrStore::carve(size_t bytes)
{
    if (static_cast<size_t>(_end - _bump) < bytes) {
        Chunk *next = _current ? _current->next : nullptr;
        if (!next) {
            next = new (::operator new(kChunkBytes)) Chunk{nullptr};
            EQ_POISON(reinterpret_cast<char *>(next) + kGrain,
                      kChunkBytes - kGrain);
            (_current ? _current->next : _first) = next;
        }
        startChunk(next);
    }
    void *p = _bump;
    _bump += bytes;
    EQ_UNPOISON(p, bytes);
    return p;
}

void
IrStore::startChunk(Chunk *chunk)
{
    _current = chunk;
    _bump = reinterpret_cast<char *>(chunk) + kGrain;
    _end = reinterpret_cast<char *>(chunk) + kChunkBytes;
}

void
IrStore::rewind()
{
    _free.fill(nullptr);
    if (!_first)
        return;
    Chunk *last = _first;
    for (size_t kept = 1; kept < kRetainedChunks && last->next; ++kept)
        last = last->next;
    freeChunksAfter(last);
    for (Chunk *c = _first; c; c = c->next)
        EQ_POISON(reinterpret_cast<char *>(c) + kGrain,
                  kChunkBytes - kGrain);
    startChunk(_first);
}

void
IrStore::freeChunksAfter(Chunk *last)
{
    Chunk *c = last ? last->next : _first;
    (last ? last->next : _first) = nullptr;
    while (c) {
        Chunk *next = c->next;
        EQ_UNPOISON(c, kChunkBytes);
        ::operator delete(c);
        c = next;
    }
    if (!last) {
        _current = nullptr;
        _bump = _end = nullptr;
    }
}

size_t
IrStore::unusedBytes() const
{
    size_t n = 0;
    for (Chunk *c = _live ? _current->next : _first; c; c = c->next)
        ++n;
    return n * kChunkBytes;
}

void
IrStore::releaseUnused()
{
    freeChunksAfter(_live ? _current : nullptr);
}

} // namespace ir
} // namespace eq
