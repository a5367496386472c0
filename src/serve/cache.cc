#include "serve/cache.hh"

#include <algorithm>
#include <string>

#include "serve/faults.hh"
#include "serve/models.hh"

namespace eq {
namespace serve {

/** One cached config: the session plus the full key for collision
 *  verification. The session is built lazily under `mu` by the first
 *  handle that runs, so cache lookups stay cheap and concurrent
 *  first-acquires cannot double-compile. */
class ProgramCache::Entry {
  public:
    Entry(const ModelKey &k, uint64_t h,
          std::unique_ptr<sim::Session> s)
        : key(k), hash(h), session(std::move(s))
    {
    }

    const ModelKey key;
    const uint64_t hash;
    std::mutex mu;        ///< serializes build + runs on this entry
    std::unique_ptr<sim::Session> session; ///< guarded by mu
    bool built = false;   ///< guarded by mu
};

ProgramCache::ProgramCache(size_t max_entries, sim::EngineOptions engine)
    : _capacity(max_entries ? max_entries : defaultEntries()),
      _engine(engine)
{
    _stats.capacity = _capacity;
}

ProgramCache::Handle
ProgramCache::acquire(const ModelKey &key)
{
    return acquireHashed(key.hash(), key);
}

ProgramCache::Handle
ProgramCache::acquireHashed(uint64_t hash, const ModelKey &key)
{
    std::lock_guard<std::mutex> g(_mu);
    auto bucket = _byHash.find(hash);
    if (bucket != _byHash.end()) {
        for (LruList::iterator it : bucket->second) {
            if ((*it)->key == key) {
                ++_stats.hits;
                _lru.splice(_lru.begin(), _lru, it); // touch: move to MRU
                return Handle(this, *it, /*warm=*/true);
            }
            // Hash matched but the structural config did not: a real
            // collision. Never reuse — fall through to a fresh entry.
            ++_stats.collisions;
        }
    }
    ++_stats.misses;
    std::unique_ptr<sim::Session> session;
    if (_lru.size() >= _capacity) {
        // Evict the least recently used entry no handle holds and take
        // over its session; when every entry is held, evict the LRU
        // one anyway (its handles keep it runnable) and build fresh.
        auto victim = std::prev(_lru.end());
        auto idle = std::find_if(
            _lru.rbegin(), _lru.rend(),
            [](const std::shared_ptr<Entry> &e) {
                return e.use_count() == 1;
            });
        if (idle != _lru.rend()) {
            victim = std::prev(idle.base());
            // Locking orders this after the entry's last run.
            std::lock_guard<std::mutex> vg((*victim)->mu);
            session = std::move((*victim)->session);
            ++_stats.recycled;
        }
        auto vb = _byHash.find((*victim)->hash);
        auto &vec = vb->second;
        vec.erase(std::find(vec.begin(), vec.end(), victim));
        if (vec.empty())
            _byHash.erase(vb);
        _lru.erase(victim);
        ++_stats.evictions;
    }
    if (!session)
        session = std::make_unique<sim::Session>(_engine);
    auto entry = std::make_shared<Entry>(key, hash, std::move(session));
    _lru.push_front(entry);
    _byHash[hash].push_back(_lru.begin());
    _stats.entries = _lru.size();
    return Handle(this, std::move(entry), /*warm=*/false);
}

bool
ProgramCache::contains(const ModelKey &key) const
{
    std::lock_guard<std::mutex> g(_mu);
    auto bucket = _byHash.find(key.hash());
    if (bucket == _byHash.end())
        return false;
    for (LruList::iterator it : bucket->second)
        if ((*it)->key == key)
            return true;
    return false;
}

ProgramCache::Stats
ProgramCache::stats() const
{
    std::lock_guard<std::mutex> g(_mu);
    Stats s = _stats;
    s.entries = _lru.size();
    return s;
}

sim::SimReport
ProgramCache::Handle::run()
{
    sim::SimReport report;
    {
        std::lock_guard<std::mutex> g(_entry->mu);
        _buildSeconds = 0.0;
        if (!_entry->built) {
            // A module pinned here is an evicted config's: free its
            // pooled run storage first, or every recycled session
            // would grow to the largest run it ever served.
            if (_entry->session->ready())
                _entry->session->releasePools();
            const ModelKey &key = _entry->key;
            // The fault seam sits inside the build function, so an
            // injected failure propagates through Session::rebuild
            // exactly like a real one. The entry stays un-built
            // (rebuild resets its state before rethrowing), so the next
            // handle retries the compile from scratch.
            _entry->session->rebuild([&](ir::Context &ctx) {
                if (FaultInjector::buildFault())
                    throw Error(ErrorCode::BuildFailed,
                                "injected program build failure");
                return key.build(ctx);
            });
            _entry->built = true;
            _buildSeconds = _entry->session->lastBuildSeconds();
        }
        report = _entry->session->run();
    }
    // Counted outside the entry lock: the cache mutex is never taken
    // while an entry mutex is held, only the other way round.
    std::lock_guard<std::mutex> g(_cache->_mu);
    ++_cache->_stats.runs;
    return report;
}

const ModelKey &
ProgramCache::Handle::key() const
{
    return _entry->key;
}

} // namespace serve
} // namespace eq
