/**
 * @file
 * ResultCache: completed sweep rows by content key — config identity
 * in, result row out — held in memory over a row log (sweep/rowlog.hh)
 * with the Discard damage policy.
 *
 * Keys are the full content of a point's configuration (a canonical
 * string — e.g. the model name plus the config's JSON dump), so after
 * a one-axis change the new grid's unchanged points hit the cache and
 * only genuinely new configurations are simulated. Two equal keys
 * denote byte-identical simulations (the determinism guarantee), so a
 * cached row is indistinguishable from a recomputed one, and the first
 * row written for a key is as good as any later one.
 */

#ifndef EQ_SWEEP_RESULTCACHE_HH
#define EQ_SWEEP_RESULTCACHE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/rowlog.hh"

namespace eq {
namespace sweep {

class ResultCache {
  public:
    struct Stats {
        uint64_t hits = 0;      ///< lookups that returned a row
        uint64_t misses = 0;    ///< lookups that found nothing
        uint64_t loaded = 0;    ///< rows recovered from the file
        uint64_t appended = 0;  ///< rows written this session
        uint64_t discarded = 0; ///< file rows dropped (stale/corrupt)
    };

    /**
     * Bind to @p path and load every valid row recorded under a
     * matching header. Creates the file (with a fresh header) when
     * absent; rewrites it when the existing header does not match
     * @p schema_sig / @p backend — counting the dropped rows
     * in stats().discarded — and truncates damaged suffixes.
     * Returns false only on I/O errors.
     */
    bool open(const std::string &path, const std::string &schema_sig,
              const std::string &backend,
              const std::vector<Column> &schema, std::string *err);

    /** The cached row for @p key, or nullptr. */
    const std::vector<Cell> *lookup(const std::string &key);

    /** Record @p cells for @p key: appended to the file (single
     *  write(2)) and held in memory. A key already present is ignored
     *  (first write wins — equal keys imply equal rows). */
    bool append(const std::string &key, const std::vector<Cell> &cells,
                std::string *err);

    void close() { _log.close(); }

    const Stats &stats() const { return _stats; }

  private:
    RowLog _log{RowLog::Policy::Discard};
    std::unordered_map<std::string, std::vector<Cell>> _rows;
    Stats _stats;
};

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_RESULTCACHE_HH
