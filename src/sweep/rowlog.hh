/**
 * @file
 * RowLog: the one durable file format of the sweep layer. A sweep
 * journal (crash-safe replay of one grid, keyed by dense point index)
 * and a result cache (cheap re-plots, keyed by configuration content)
 * are both row logs: one format with two damage policies.
 *
 * Format: one NDJSON header line, then one CRC-sealed record per row.
 *  - The header pins the identity the rows belong to: a kind tag
 *    ("journal":"eqsweep" or "cache":"eqsweep-results"), the version,
 *    the schema signature and the resolved backend. A journal's header
 *    also pins the grid: grid hash, point count and a caller salt
 *    (the configs the points run). A cache outlives any one grid, so its
 *    header carries none.
 *  - A record is {id, "key", "cells", "crc"}. The id is the dense
 *    point index "i" in a journal and the FNV-1a hash of the key "h"
 *    in a cache. The CRC32 covers the canonically re-dumped payload,
 *    so recovery also rejects reordered or tampered members.
 *
 * Durability discipline:
 *  - The header is written and fsync'd before any record, so a log
 *    with a readable header is always attributable to exactly one
 *    identity. A file without a complete header line is a create()
 *    that never reached its fsync: no record can exist, so open()
 *    starts it over.
 *  - Records are appended with a single write(2) each on an O_APPEND
 *    fd: concurrent appenders never interleave, and a crash can only
 *    tear the *last* record. An optional fsync per record
 *    (setFsyncEachRecord) bounds loss to the in-flight rows; otherwise
 *    the owner sync()s once at close.
 *  - Headers from before fusion was implied by the backend may carry a
 *    "fuse" field; "fuse":"off" names the removed unfused compiled
 *    mode and matches no current backend.
 *
 * One recovery scan serves both, parameterised by the damage policy:
 *  - Refuse (the journal, authoritative for its grid): a bad *final*
 *    record (a torn append, a bit flip in the tail) is truncated and
 *    its point recomputed; a bad record with valid records after it is
 *    real corruption (journal_corrupt), and so is an unreadable
 *    header; a header for another sweep is journal_header_mismatch.
 *    A refused file is left untouched — never silently merged.
 *  - Discard (the cache, always recomputable): everything from the
 *    first bad record on is dropped, and an unreadable or mismatched
 *    header makes open() start a fresh file. Damage is never an error,
 *    and stale rows are never served to a sweep they do not describe.
 *
 * Replaying a row is sound for exactly the reason serve::Client
 * retries are: results are byte-deterministic at any worker count, so
 * a replayed row is indistinguishable from a recomputed one. Duplicate
 * records are therefore legal (a rerun over a journal may recompute a
 * point), and honest duplicates are identical;
 * the journal replays them last-write-wins, the cache keeps the
 * first.
 */

#ifndef EQ_SWEEP_ROWLOG_HH
#define EQ_SWEEP_ROWLOG_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/engine.hh"
#include "sweep/grid.hh"
#include "sweep/table.hh"

namespace eq {
namespace sweep {

/** Print the structured error line drivers branch on, never prose:
 *  `<tool>: error: {"code":"...","message":"..."}` on stderr. Returns
 *  @p code's exit code (base/failure.hh). */
int printError(const std::string &tool, ErrorCode code,
               const std::string &message);

/** The identity a row log is bound to. Two sweeps may share a log iff
 *  every field matches. */
struct RowLogHeader {
    static constexpr int kVersion = 1;
    enum class Kind : uint8_t { Journal, Cache };

    Kind kind = Kind::Journal;
    std::string schemaSig;  ///< schemaSignature() of the table schema
    std::string backend;    ///< resolved engine backend ("interp"/...)
    // The grid identity: journals only.
    uint64_t gridHash = 0;  ///< hashPoints() over the dense grid
    uint64_t numPoints = 0; ///< dense points in the full grid
    std::string salt;       ///< caller identity (the configs run)

    serve::Json toJson() const;
    /** Parse a header of @p kind; a header of the other kind fails. */
    static bool fromJson(const serve::Json &j, Kind kind,
                         RowLogHeader *out, std::string *err);

    /** Full-field comparison; on mismatch @p why names the first
     *  differing field (old vs new). */
    bool matches(const RowLogHeader &o, std::string *why) const;
};

/** "name:kind" per column, ';'-joined — the schema identity every
 *  header is verified against. */
std::string schemaSignature(const std::vector<Column> &schema);

/** FNV-1a over point count, per-point dense index and axis values —
 *  the grid identity. Any axis edit (value added, order changed,
 *  filter changed) yields a different hash. */
uint64_t hashPoints(const std::vector<Point> &points);

/** The journal header of a sweep over the whole grid @p points. The
 *  backend is resolved exactly like a Simulator would resolve
 *  @p engine (Auto reads EQ_SIM_BACKEND). */
RowLogHeader gridIdentity(const std::vector<Point> &points,
                          const std::vector<Column> &schema,
                          std::string salt,
                          const sim::EngineOptions &engine);

/** FNV-1a over a key string: the persisted "h" of a cache record. */
uint64_t hashKey(const std::string &key);

/** One recovered record. */
struct RowRecord {
    size_t index = 0;        ///< dense point index (journals only)
    std::string key;         ///< content key of the point's config
    std::vector<Cell> cells; ///< the completed row
};

/**
 * Append-side handle over one row log. append() is thread-safe (sweep
 * workers share one writer).
 */
class RowLog {
  public:
    /** What a damaged or foreign file means to its owner. */
    enum class Policy : uint8_t { Refuse, Discard };

    /** Result of reading a log back. */
    struct Recovery {
        ErrorCode status = ErrorCode::Ok;
        std::string error;               ///< set when status != Ok
        bool tornHeader = false;         ///< no complete header line
        std::vector<RowRecord> records;  ///< file order (dups kept)
        uint64_t keptBytes = 0;          ///< prefix that was valid
        uint64_t truncatedBytes = 0;     ///< damaged suffix dropped
        uint64_t droppedRows = 0; ///< rows lost to damage or staleness
    };

    explicit RowLog(Policy policy) : _policy(policy) {}
    ~RowLog();

    RowLog(const RowLog &) = delete;
    RowLog &operator=(const RowLog &) = delete;

    /** Parse + verify the log at @p path read-only against @p expect
     *  (the merge path). @p schema drives cell decoding and kind
     *  verification. */
    static Recovery recover(const std::string &path,
                            const RowLogHeader &expect,
                            const std::vector<Column> &schema,
                            Policy policy);

    /**
     * Open @p path for appending under @p header. An existing file is
     * always recovered first (@p out receives the replayable records
     * and the damage accounting): its damaged tail is truncated in
     * place and appends go after it; a torn header, or under Discard
     * any unusable header, starts the file over. A missing file is
     * created, header written and fsync'd before returning. On a
     * refusal (a mismatched or corrupt journal under Refuse) the file is left
     * byte-identical.
     */
    ErrorCode open(const std::string &path, const RowLogHeader &header,
                       const std::vector<Column> &schema, Recovery *out);

    /** Append one row (a single write(2)); @p index is ignored by a
     *  cache. With fsync-per-record, fsyncs before returning. */
    bool append(size_t index, const std::string &key,
                const std::vector<Cell> &cells, std::string *err);

    void setFsyncEachRecord(bool on) { _fsyncEach = on; }
    /** fsync the log now (the close-time policy). */
    bool sync(std::string *err);
    void close();

  private:
    Policy _policy;
    RowLogHeader::Kind _kind = RowLogHeader::Kind::Journal;
    int _fd = -1;
    bool _fsyncEach = false;
    std::mutex _mu;
};

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_ROWLOG_HH
