/**
 * @file
 * ProgramCache: the one pool of sim::Sessions, and the only code that
 * decides when a Session is rebuilt for a ModelKey. The daemon keeps
 * one across requests; every in-process sweep (runLocalSweep*, the
 * bench harnesses, the examples) keeps one sized to its thread count.
 *
 * Each entry owns a full sim::Session for one structural config — a
 * Context, a Simulator and the pinned module, whose value numbering,
 * dispatch tables, and compiled + fused micro-op programs survive
 * between runs. The cache is a bounded LRU keyed by
 * the config's FNV-1a structural hash; on a hash hit the stored
 * ModelKey is ALWAYS compared for full structural equality
 * (operator==) before reuse, so a hash collision costs a second entry
 * and a rebuild, never a wrong simulation.
 *
 * Recycling: a miss at capacity evicts the least recently used entry
 * no handle holds and rebuilds that entry's Session for the new key.
 * Its Context, dispatch tables and last run's buffers are kept; its
 * event, exec and env pools are freed first (Session::releasePools),
 * so an idle entry never holds more than its own config's runs need.
 * A sweep of N >= T distinct keys on T threads with capacity T thus
 * constructs T Sessions. Only when every entry is held does a miss
 * evict the LRU entry and construct a fresh Session.
 *
 * Concurrency: the map/LRU bookkeeping sits behind one cache mutex
 * held only for lookups. Building and running happen under a
 * per-entry mutex outside the cache lock — two requests racing on the
 * same new config both resolve to the same (unbuilt) entry, the first
 * compiles under the entry mutex, the second blocks and then reuses;
 * requests on different configs never serialize against each other.
 * Handles pin entries via shared_ptr, so an entry evicted while
 * pinned stays fully usable until its last handle drops — eviction
 * only forgets, it never invalidates. Handles are created only under
 * the cache mutex and copied only from an existing handle, so an
 * entry whose use count is 1 under that mutex is held by nobody and
 * cannot become held: that is the recycling test.
 */

#ifndef EQ_SERVE_CACHE_HH
#define EQ_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/models.hh"
#include "sim/session.hh"

namespace eq {
namespace serve {

class ProgramCache {
  public:
    struct Stats {
        uint64_t hits = 0;       ///< lookup found an equal key
        uint64_t misses = 0;     ///< lookup created a fresh entry
        uint64_t evictions = 0;  ///< LRU entries dropped at capacity
        uint64_t recycled = 0;   ///< misses that rebuilt an evicted
                                 ///< entry's Session
        uint64_t collisions = 0; ///< hash matched, full key did not
        uint64_t runs = 0;       ///< simulations served
        size_t entries = 0;      ///< live entries in the map
        size_t capacity = 0;     ///< the bound
    };

    /** @p max_entries of 0 selects defaultEntries(); @p engine
     *  configures every entry's Simulator (backend / env resolution
     *  happens per entry at first build). */
    explicit ProgramCache(size_t max_entries = 0,
                          sim::EngineOptions engine = {});

    /** The capacity a max_entries of 0 selects. */
    static constexpr size_t defaultEntries() { return 32; }

    class Entry;

    /**
     * A pinned cache entry. run() compiles the program on first use
     * (under the entry's mutex, so concurrent handles to the same
     * config never double-compile) and simulates it once; repeated
     * and concurrent runs serialize per entry and stay byte-identical
     * to a fresh Simulator run. The issuing cache must outlive the
     * handle.
     */
    class Handle {
      public:
        sim::SimReport run();
        const ModelKey &key() const;
        /** True when acquire() found a warm (already present) entry. */
        bool warm() const { return _warm; }
        /** Wall seconds the last run() spent building the program; 0
         *  when it reused one. */
        double buildSeconds() const { return _buildSeconds; }

      private:
        friend class ProgramCache;
        Handle(ProgramCache *cache, std::shared_ptr<Entry> entry,
               bool warm)
            : _cache(cache), _entry(std::move(entry)), _warm(warm)
        {
        }
        ProgramCache *_cache;
        std::shared_ptr<Entry> _entry;
        bool _warm;
        double _buildSeconds = 0.0;
    };

    /** Look up (or create) the entry for @p key. */
    Handle acquire(const ModelKey &key)
    {
        return acquireHashed(key.hash(), key);
    }

    /** Same, with the hash supplied by the caller — the test seam
     *  that lets unit tests force two different keys onto one hash
     *  bucket and prove the equality check keeps them apart. */
    Handle acquireHashed(uint64_t hash, const ModelKey &key);

    /** True when an equal key is currently cached. Touches neither
     *  the LRU order nor the stats (test/introspection helper). */
    bool contains(const ModelKey &key) const;

    Stats stats() const;
    size_t capacity() const { return _capacity; }

  private:
    friend class Handle;

    using LruList = std::list<std::shared_ptr<Entry>>;

    mutable std::mutex _mu;
    size_t _capacity;
    sim::EngineOptions _engine;
    LruList _lru; ///< front = most recently used
    std::unordered_map<uint64_t, std::vector<LruList::iterator>> _byHash;
    Stats _stats;
};

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_CACHE_HH
