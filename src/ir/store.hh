/**
 * @file
 * IrStore: the memory of one Context's IR.
 *
 * Every Operation, Block, block-argument chunk and grown operand or
 * attribute array of a Context comes from its IrStore. Blocks up to
 * kMaxClassBytes are carved from fixed chunks of kChunkBytes, rounded
 * up to a 16-byte size class; a freed block goes on its class's free
 * list and the next request of that class takes it back. Larger blocks
 * (an await of hundreds of events) go to the global heap.
 *
 * When the last chunk-carved block of the store is freed (the last IR
 * tree of the Context died, as on every Session::rebuild), the store
 * rewinds: its free lists empty, it keeps its first kRetainedChunks
 * chunks, frees the rest, and the next build bump-allocates from the
 * first chunk again. Once its trees are gone, a Context thus keeps at
 * most kRetainedChunks * kChunkBytes, whatever the largest tree it
 * ever held; releaseUnused() frees even that. A build that runs out of
 * memory unwinds its tree like any other, so the store rewinds then
 * too.
 *
 * Under AddressSanitizer every byte of a chunk that no live block
 * holds (free-list slots, rewound chunks, the unused tail) is poisoned,
 * so a use of an erased op is still reported.
 */

#ifndef EQ_IR_STORE_HH
#define EQ_IR_STORE_HH

#include <array>
#include <cstddef>

namespace eq {
namespace ir {

/** Size-classed chunk storage for one Context's IR. */
class IrStore {
  public:
    static constexpr size_t kGrain = 16;
    static constexpr size_t kMaxClassBytes = 2048;
    static constexpr size_t kChunkBytes = 32 * 1024;
    static constexpr size_t kRetainedChunks = 16;

    IrStore() = default;
    ~IrStore();

    IrStore(const IrStore &) = delete;
    IrStore &operator=(const IrStore &) = delete;

    /** @p bytes of storage aligned to kGrain. */
    void *allocate(size_t bytes);
    /** Return @p p, which allocate(@p bytes) handed out. */
    void deallocate(void *p, size_t bytes);

    /** Chunk bytes that no live block uses: every chunk when nothing
     *  is live, else the chunks past the one being carved. */
    size_t unusedBytes() const;
    /** Free the chunks unusedBytes() counts. */
    void releaseUnused();

  private:
    /** A chunk's header; its blocks follow from kGrain bytes on. */
    struct Chunk {
        Chunk *next; ///< the chunk carved after this one
    };

    static size_t classOf(size_t bytes) { return (bytes - 1) / kGrain; }
    static size_t
    classBytes(size_t bytes)
    {
        return (classOf(bytes) + 1) * kGrain;
    }

    /** Carve @p bytes from the chunks, moving to the next one (kept
     *  or new) when the current one is full. */
    void *carve(size_t bytes);
    /** Forget every block: empty the free lists, keep at most
     *  kRetainedChunks chunks and carve from the first again. */
    void rewind();
    /** Free every chunk after @p last (every chunk when null). */
    void freeChunksAfter(Chunk *last);
    void startChunk(Chunk *chunk);

    std::array<void *, kMaxClassBytes / kGrain> _free{};
    Chunk *_first = nullptr;
    Chunk *_current = nullptr; ///< the chunk being carved; null: none
    char *_bump = nullptr;
    char *_end = nullptr;
    size_t _live = 0; ///< chunk-carved blocks handed out and not freed
};

} // namespace ir
} // namespace eq

#endif // EQ_IR_STORE_HH
