/**
 * @file
 * Journaled sweep checkpointing: every completed point of a sweep is
 * appended to an NDJSON journal as one CRC-protected record, so a
 * crash at point 9,900 of 10,000 costs at most the points in flight —
 * --resume replays the journal and recomputes only what is missing.
 *
 * Durability discipline:
 *  - The header line is written and fsync'd before any record, so a
 *    journal that exists with a readable header is always attributable
 *    to exactly one (grid, schema, backend) combination.
 *  - Records are appended with a single write(2) each on an O_APPEND
 *    fd; a crash can only tear the *last* record, never interleave or
 *    damage earlier ones. An optional fsync-per-record policy
 *    (JournalOptions::fsyncEachRecord) bounds loss to the in-flight
 *    point at the cost of one fsync per point.
 *  - Recovery strict-parses every line and verifies a CRC32 over the
 *    record payload. A bad *tail* record (torn write, bit flip in the
 *    last line) is truncated and its point recomputed; a bad record
 *    in the *middle* of the journal — valid records follow it — is
 *    real corruption and recovery refuses loudly (JournalStatus::
 *    Corrupt) rather than merging garbage.
 *  - The header carries the grid hash, schema signature, and resolved
 *    backend; --resume against a journal whose header does
 *    not match the current sweep is refused (HeaderMismatch), never
 *    silently merged.
 *  - Duplicate records for one point are legal (a resumed run or a
 *    reassigned shard may recompute a point another attempt already
 *    journaled) and resolve last-write-wins — sound because sweep
 *    results are byte-deterministic, so duplicates are identical
 *    whenever the journal is honest.
 *
 * Replaying a journal is sound for exactly the reason serve::Client
 * retries are: results are byte-deterministic at any worker count, so
 * a replayed row is indistinguishable from a recomputed one.
 */

#ifndef EQ_SWEEP_JOURNAL_HH
#define EQ_SWEEP_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "sim/engine.hh"
#include "sweep/runner.hh"

namespace eq {
namespace sweep {

/** Outcome of opening/recovering/merging journals. */
enum class JournalStatus : uint8_t {
    Ok,             ///< usable (possibly after tail truncation)
    IoError,        ///< open/read/write failed
    HeaderMismatch, ///< journal belongs to a different sweep
    Corrupt,        ///< bad record with valid records after it
};

/** Stable wire/exit name ("ok", "io_error", "journal_header_mismatch",
 *  "journal_corrupt") — what eqsweep prints in structured errors. */
const char *journalStatusName(JournalStatus status);

/** The identity a journal is bound to. Two sweeps may share a journal
 *  iff every field matches. */
struct JournalHeader {
    static constexpr int kVersion = 1;

    uint64_t gridHash = 0;   ///< hashPoints() over the dense grid
    uint64_t numPoints = 0;  ///< dense points in the full grid
    std::string schemaSig;   ///< schemaSignature() of the table schema
    std::string backend;     ///< resolved engine backend ("interp"/...)
    std::string salt;        ///< caller identity (model + base config)

    serve::Json toJson() const;
    static bool fromJson(const serve::Json &j, JournalHeader *out,
                         std::string *err);

    /** Full-field comparison; on mismatch @p why names the first
     *  differing field (old vs new). */
    bool matches(const JournalHeader &o, std::string *why) const;
};

/** "name:kind" per column, ';'-joined — the schema identity the
 *  journal/result-cache headers are verified against. */
std::string schemaSignature(const std::vector<Column> &schema);

/** FNV-1a over point count, per-point dense index and axis values —
 *  the grid identity. Any axis edit (value added, order changed,
 *  filter changed) yields a different hash. */
uint64_t hashPoints(const std::vector<Point> &points);

/** The resolved backend name ("interp"/"compiled") a header records
 *  for @p engine — resolution happens exactly like a Simulator would
 *  (Auto reads EQ_SIM_BACKEND). */
std::string resolveEngineMode(const sim::EngineOptions &engine);

/** One recovered journal record. */
struct JournalRecord {
    size_t index = 0;        ///< dense point index
    std::string key;         ///< content key of the point's config
    std::vector<Cell> cells; ///< the completed row
};

/**
 * Append-side handle: create() writes the header and fsyncs it;
 * append() emits one record per completed point with a single
 * write(2). Thread-safe (the sweep workers share one writer).
 */
class Journal {
  public:
    Journal() = default;
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** Result of reading a journal back. */
    struct Recovery {
        JournalStatus status = JournalStatus::Ok;
        std::string error;                  ///< set when status != Ok
        bool headerValid = false;           ///< header line parsed
        bool tornHeader = false; ///< no complete header line (Corrupt)
        JournalHeader header;               ///< parsed header
        std::vector<JournalRecord> records; ///< file order (dups kept)
        uint64_t truncatedBytes = 0;        ///< torn tail dropped
        uint64_t keptBytes = 0;             ///< prefix that was valid
    };

    /** Start a fresh journal at @p path (truncates any existing file):
     *  header written + fsync'd before returning. */
    bool create(const std::string &path, const JournalHeader &header,
                std::string *err);

    /**
     * Resume an existing journal: verify its header against @p expect,
     * recover its records, truncate a torn/corrupt tail record in
     * place, and reopen for appending. @p out_recovery receives the
     * replayable records (and the truncation accounting). On
     * HeaderMismatch/Corrupt the file is left untouched.
     */
    JournalStatus openResume(const std::string &path,
                             const JournalHeader &expect,
                             Recovery *out_recovery);

    /** Parse + verify a journal read-only (the merge path). @p expect
     *  may be null to accept any header (the caller then compares
     *  headers across shards itself). @p schema drives cell decoding
     *  and kind verification. */
    static Recovery recover(const std::string &path,
                            const JournalHeader *expect,
                            const std::vector<Column> &schema);

    /** Append one completed point (single write(2); thread-safe).
     *  With fsyncEachRecord, fsyncs before returning. */
    bool append(size_t index, const std::string &key,
                const std::vector<Cell> &cells, std::string *err);

    void setFsyncEachRecord(bool on) { _fsyncEach = on; }
    /** fsync the journal fd now (the close-time policy). */
    bool sync(std::string *err);
    void close();
    bool isOpen() const { return _fd >= 0; }

    /** The schema used to decode recovered cells; must be set before
     *  openResume (create() does not need it). */
    void setSchema(std::vector<Column> schema)
    {
        _schema = std::move(schema);
    }

  private:
    bool openAppend(const std::string &path, std::string *err);

    int _fd = -1;
    bool _fsyncEach = false;
    std::vector<Column> _schema; ///< decode schema (set by caller)
    std::mutex _mu;
};

// ---------------------------------------------------------------------------
// Journaled sweep orchestration

/** Durability knobs for runJournaledSweep (all optional). */
struct JournalOptions {
    std::string journalPath; ///< "" = no journal
    bool resume = false;     ///< replay an existing journal at the path
    std::string cachePath;   ///< "" = no content-keyed result cache
    bool fsyncEachRecord = false; ///< fsync per record, not per run
    std::string salt; ///< sweep identity beyond the grid (model, base
                      ///< config) — folded into the journal header

    /** Full-grid identity override for shard runs (which execute a
     *  dense sub-range but journal under the whole grid's header).
     *  When numPoints == 0 both are derived from the points passed to
     *  runJournaledSweep — the whole-grid case. */
    uint64_t gridHash = 0;
    uint64_t numPoints = 0;
};

/** Where each row of a journaled sweep came from. */
struct ResumeStats {
    size_t computed = 0;     ///< simulated this run
    size_t fromJournal = 0;  ///< replayed from the journal
    size_t fromCache = 0;    ///< content-keyed result-cache hits
    uint64_t journalTruncatedBytes = 0; ///< torn tail dropped on resume
};

/** Content key for one point: the full configuration identity (not
 *  the point index), so the result cache keeps hitting after the grid
 *  around a config changes. */
using PointKeyFn = std::function<std::string(const Point &)>;

/**
 * SweepRunner::run with a durability layer: rows already present in
 * the result cache (by content key) or the resumed journal (by dense
 * index) are replayed; only the remainder is simulated, each completed
 * point journaled as it lands and new results appended to the cache.
 * The assembled table is byte-identical to a fresh, journal-less run
 * for deterministic schemas (wall-clock columns replay their recorded
 * values — drop them before byte-comparing, as --no-wall does).
 *
 * Returns Ok and fills @p out on success. HeaderMismatch / Corrupt /
 * IoError (with @p err) mean the journal was refused — nothing was
 * simulated and nothing was merged.
 */
JournalStatus runJournaledSweep(const SweepRunner &runner,
                                const std::vector<Point> &points,
                                std::vector<Column> schema,
                                const PointKeyFn &keyFn,
                                const SweepRunner::RowFn &fn,
                                const JournalOptions &opts,
                                const sim::EngineOptions &engine,
                                Table *out, ResumeStats *stats,
                                std::string *err);

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_JOURNAL_HH
