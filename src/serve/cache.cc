#include "serve/cache.hh"

#include <atomic>
#include <string>

#include "serve/faults.hh"

namespace eq {
namespace serve {

/** One cached config: the session plus the full key for collision
 *  verification. The session is built lazily under `mu` by the first
 *  handle that runs, so cache lookups stay cheap and concurrent
 *  first-acquires cannot double-compile. */
class ProgramCache::Entry {
  public:
    Entry(const ModelKey &k, uint64_t h, sim::EngineOptions engine)
        : key(k), hash(h), session(engine)
    {
    }

    const ModelKey key;
    const uint64_t hash;
    std::mutex mu;        ///< serializes build + runs on this entry
    sim::Session session; ///< guarded by mu
    bool built = false;   ///< guarded by mu
    LruList::iterator lruIt; ///< guarded by the cache mutex
};

ProgramCache::ProgramCache(size_t max_entries, sim::EngineOptions engine)
    : _capacity(max_entries ? max_entries : defaultEntries()),
      _engine(engine)
{
    if (_capacity < 1)
        _capacity = 1;
    _stats.capacity = _capacity;
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
    auto entry = std::make_shared<Entry>(key, hash, _engine);
    _lru.push_front(entry);
    entry->lruIt = _lru.begin();
    _byHash[hash].push_back(_lru.begin());
    _stats.entries = _lru.size();

    while (_lru.size() > _capacity) {
        std::shared_ptr<Entry> victim = _lru.back();
        auto vb = _byHash.find(victim->hash);
        if (vb != _byHash.end()) {
            auto &vec = vb->second;
            for (auto vit = vec.begin(); vit != vec.end(); ++vit) {
                if (*vit == victim->lruIt) {
                    vec.erase(vit);
                    break;
                }
            }
            if (vec.empty())
                _byHash.erase(vb);
        }
        _lru.pop_back();
        ++_stats.evictions;
        _stats.entries = _lru.size();
        // `victim` may still be pinned by outstanding handles; the
        // shared_ptr keeps it runnable until the last one drops.
    }
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
    std::lock_guard<std::mutex> g(_entry->mu);
    if (!_entry->built) {
        const ModelKey &key = _entry->key;
        // The fault seam sits inside the build function, so an
        // injected failure propagates through Session::rebuild exactly
        // like a real one. The entry stays un-built (rebuild resets
        // its state before rethrowing), so the next handle retries
        // the compile from scratch.
        _entry->session.rebuild([&](ir::Context &ctx) {
            if (FaultInjector::buildFault())
                throw BuildError("injected program build failure");
            return key.build(ctx);
        });
        _entry->built = true;
    }
    sim::SimReport report = _entry->session.run();
    {
        std::lock_guard<std::mutex> sg(_cache->_mu);
        ++_cache->_stats.runs;
    }
    return report;
}

const ModelKey &
ProgramCache::Handle::key() const
{
    return _entry->key;
}

} // namespace serve
} // namespace eq
