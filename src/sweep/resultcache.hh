/**
 * @file
 * ResultCache: a file-backed, content-keyed cache of completed sweep
 * rows — config identity in, result row out.
 *
 * Where the journal makes one grid crash-safe (keyed by dense point
 * index under a grid-hash header), the result cache makes *re-plots*
 * cheap: rows are keyed by the full content of the point's
 * configuration (a canonical string — e.g. the model name plus the
 * config's JSON dump), so after a one-axis change the new grid's
 * unchanged points hit the cache and only genuinely new configurations
 * are simulated.
 *
 * Collision discipline mirrors serve::ProgramCache: the in-memory
 * index buckets by FNV-1a hash of the key string, but every hit
 * verifies full string equality before reuse — a hash collision costs
 * a second bucket entry, never a wrong row. Keying on full content is
 * what makes replay sound: two equal keys denote byte-identical
 * simulations (the determinism guarantee), so a cached row is
 * indistinguishable from a recomputed one.
 *
 * File format: one NDJSON header line (schema signature + resolved
 * backend), then one CRC-protected record per row, appended
 * with a single write(2) each. Unlike the journal, a damaged or
 * mismatched cache is never an error: a cache can always be recomputed,
 * so open() quietly truncates a torn tail, drops everything from the
 * first corrupt record, and starts fresh (rewriting the header) when
 * the header does not match the current schema/backend — stale rows
 * must never be served to a sweep they do not describe.
 */

#ifndef EQ_SWEEP_RESULTCACHE_HH
#define EQ_SWEEP_RESULTCACHE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/table.hh"

namespace eq {
namespace sweep {

class ResultCache {
  public:
    struct Stats {
        size_t entries = 0;      ///< rows held in memory
        uint64_t hits = 0;       ///< lookups that returned a row
        uint64_t misses = 0;     ///< lookups that found nothing
        uint64_t collisions = 0; ///< hash matched, key string did not
        uint64_t loaded = 0;     ///< rows recovered from the file
        uint64_t appended = 0;   ///< rows written this session
        uint64_t discarded = 0;  ///< file rows dropped (stale/corrupt)
    };

    ResultCache() = default;
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Bind to @p path and load every valid row recorded under a
     * matching header. Creates the file (with a fresh header) when
     * absent; rewrites it when the existing header does not match
     * @p schema_sig / @p backend — counting the dropped rows
     * in stats().discarded — and truncates torn/corrupt suffixes.
     * Returns false only on I/O errors.
     */
    bool open(const std::string &path, const std::string &schema_sig,
              const std::string &backend,
              const std::vector<Column> &schema, std::string *err);

    /** The cached row for @p key, or nullptr. Full string equality —
     *  never trusts the hash alone. */
    const std::vector<Cell> *lookup(const std::string &key);

    /** True when an equal key is cached (no stats side effects). */
    bool contains(const std::string &key) const;

    /** Record @p cells for @p key: appended to the file (single
     *  write(2)) and indexed in memory. A key already present is
     *  ignored (first write wins — equal keys imply equal rows). */
    bool append(const std::string &key, const std::vector<Cell> &cells,
                std::string *err);

    /** Test seams: append/look up under a caller-chosen hash, so tests
     *  can force two keys into one bucket and prove full-key
     *  verification keeps them apart (the acquireHashed() of this
     *  cache). */
    bool appendHashed(uint64_t hash, const std::string &key,
                      const std::vector<Cell> &cells, std::string *err);
    const std::vector<Cell> *lookupHashed(uint64_t hash,
                                          const std::string &key);

    /** fsync the cache file fd. */
    bool sync(std::string *err);
    void close();

    const Stats &stats() const { return _stats; }

    /** FNV-1a over a key string (exposed for the test seam). */
    static uint64_t hashKey(const std::string &key);

  private:
    struct Row {
        std::string key;
        std::vector<Cell> cells;
    };

    bool writeHeader(std::string *err);
    bool appendRecordLine(uint64_t hash, const std::string &key,
                          const std::vector<Cell> &cells,
                          std::string *err);

    int _fd = -1;
    std::string _path;
    std::string _schemaSig;
    std::string _backend;
    std::vector<Column> _schema;
    std::unordered_map<uint64_t, std::vector<Row>> _byHash;
    Stats _stats;
};

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_RESULTCACHE_HH
