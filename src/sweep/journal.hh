/**
 * @file
 * Journaled sweeps: SweepRunner::run layered over two row logs
 * (sweep/rowlog.hh). The journal makes one grid crash-safe — every
 * completed point is appended as it lands, so a crash at point 9,900
 * of 10,000 costs at most the points in flight. There is one journal
 * mode: a journal already at the path is always recovered, so the
 * rerun of a command replays it and recomputes only what is missing,
 * and a journal of another sweep is refused and left byte-identical.
 * The result cache makes re-plots cheap — rows keyed by configuration
 * content keep hitting after the grid around them changes.
 */

#ifndef EQ_SWEEP_JOURNAL_HH
#define EQ_SWEEP_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/rowlog.hh"
#include "sweep/runner.hh"

namespace eq {
namespace sweep {

/** Durability knobs for runJournaledSweep (all optional). */
struct JournalOptions {
    std::string journalPath; ///< "" = no journal; an existing one replays
    std::string cachePath;   ///< "" = no content-keyed result cache
    bool fsyncEachRecord = false; ///< fsync per record, not per run
};

/** Where each row of a journaled sweep came from. */
struct ResumeStats {
    size_t computed = 0;     ///< simulated this run
    size_t fromJournal = 0;  ///< replayed from the journal
    size_t fromCache = 0;    ///< content-keyed result-cache hits
    uint64_t journalTruncatedBytes = 0; ///< torn tail dropped on replay
};

/** Print `# resume: computed=… journal=… cache=… truncated_bytes=…`
 *  on stderr — the line scripts parse. */
void printResumeStats(const ResumeStats &stats);

/** Content key for one point: the full configuration identity (not
 *  the point index), so the result cache keeps hitting after the grid
 *  around a config changes. */
using PointKeyFn = std::function<std::string(const Point &)>;

/**
 * SweepRunner::run with a durability layer: rows already present in
 * the journal (by dense index) or the result cache (by content
 * key) are replayed; only the remainder is simulated, each completed
 * point journaled as it lands and new results appended to the cache.
 * The assembled table is byte-identical to a fresh, journal-less run
 * for deterministic schemas (wall-clock columns replay their recorded
 * values — drop them before byte-comparing, as --no-wall does).
 *
 * @p points are a grid's dense points (points[i].index() == i), and
 * @p identity is their journal header (gridIdentity()). The cache
 * reuses its schema and backend.
 *
 * Returns Ok and fills @p out on success. JournalHeaderMismatch /
 * JournalCorrupt / IoError (with @p err) mean the journal was refused
 * or could not be written — no table is produced, and after a failed
 * append no further point is simulated. A point that throws propagates as
 * SweepRunner::run's PointFailed, after the rows journaled before it
 * are synced as on a normal exit.
 */
ErrorCode runJournaledSweep(const SweepRunner &runner,
                            const std::vector<Point> &points,
                            std::vector<Column> schema,
                            const PointKeyFn &keyFn,
                            const SweepRunner::RowFn &fn,
                            const JournalOptions &opts,
                            const RowLogHeader &identity, Table *out,
                            ResumeStats *stats, std::string *err);

/**
 * The flags every sweep front end shares (eqsweep and the bench
 * harnesses), parsed by one function:
 *   --threads N     worker threads, N >= 1 (default $EQ_SWEEP_THREADS)
 *   --backend MODE  interp|compiled|auto (default auto)
 *   --journal PATH  journal completed points to PATH; a journal of the
 *                   same sweep already there is replayed first
 *   --cache PATH    content-keyed result cache file
 *   --fsync         fsync the journal after every record
 *   --csv PATH      write the table as CSV to PATH (atomically)
 */
struct SweepFlags {
    unsigned threads = 0; ///< 0 = SweepRunner's default
    sim::EngineOptions engine;
    JournalOptions durability;
    std::string csvPath;

    enum class Parse : uint8_t { Taken, NotShared, Bad };
    /** If argv[*i] is a shared flag, consume it and its value (advancing
     *  *i) and return Taken; NotShared leaves *i alone. Bad means a
     *  missing or malformed value: a structured "usage" line for
     *  @p tool is printed and the caller exits with its code. */
    Parse parse(const std::string &tool, int argc, char **argv, int *i);
};

/** One journaled sweep as a front end runs it: runJournaledSweep, or
 *  a wrapper such as serve::runLocalSweepDurable, with the stats and
 *  error outputs left to the caller. */
using SweepCommand =
    std::function<ErrorCode(ResumeStats *stats, std::string *err)>;

/**
 * The one exit contract of a sweep front end: run @p sweep for @p tool
 * and return its exit code. 0 means the sweep's table is filled; a
 * refusal, an I/O failure or a thrown Error (a point that threw is
 * point_failed) prints printError's line and returns its code's exit
 * code. The `# resume:` line is printed whenever @p opts names a
 * journal or a cache.
 */
int runSweepCommand(const std::string &tool, const JournalOptions &opts,
                    const SweepCommand &sweep);

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_JOURNAL_HH
