/**
 * @file
 * Cross-process shard dispatch for sweeps: manifests, heartbeats, and
 * the deterministic shard-journal merge.
 *
 * A sweep over N dense points is split into contiguous index ranges
 * [begin, end), one ShardManifest per range. Each manifest is a
 * self-contained work order — the full grid's identity (the
 * RowLogHeader every shard journals under) plus the slice to run and
 * the journal/heartbeat paths to use — written atomically so a
 * dispatcher crash never leaves a half-written manifest.
 *
 * Shard processes journal every completed point under the *whole*
 * grid's header (grid hash over all N points, not the slice), so shard
 * journals are mutually mergeable and any shard can be relaunched with
 * --resume after a crash. The merge reads every shard journal, refuses
 * on any header that does not match the expected sweep
 * (HeaderMismatch) or any mid-file corruption (Corrupt), resolves
 * duplicate points last-write-wins (sound: results are
 * byte-deterministic, so honest duplicates are identical), and emits
 * rows in dense point order — byte-identical to a single-process run.
 *
 * Liveness is observed, not signalled: each shard rewrites a one-line
 * heartbeat file (atomic replace) after every completed point, and the
 * dispatcher decides death/straggling purely from heartbeat staleness
 * and process exit — no pipes or shared memory to clean up after a
 * SIGKILL.
 */

#ifndef EQ_SWEEP_SHARD_HH
#define EQ_SWEEP_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/journal.hh"

namespace eq {
namespace sweep {

/** One shard's work order. */
struct ShardManifest {
    int shard = 0;          ///< this shard's id in [0, numShards)
    int numShards = 1;      ///< total shards in the dispatch
    uint64_t beginPoint = 0; ///< dense index range [beginPoint,
    uint64_t endPoint = 0;   ///<                    endPoint)
    RowLogHeader header;     ///< full-grid identity (all shards equal)
    std::string specPath;    ///< SweepSpec JSON the shard should load
    std::string journalPath; ///< where the shard journals its points
    std::string heartbeatPath; ///< where the shard beats after points

    serve::Json toJson() const;
    static bool fromJson(const serve::Json &j, ShardManifest *out,
                         std::string *err);

    /** Atomic write (temp + rename) / strict load. */
    bool save(const std::string &path, std::string *err) const;
    static bool load(const std::string &path, ShardManifest *out,
                     std::string *err);
};

/**
 * Split @p num_points dense indices into @p num_shards contiguous
 * stripes covering [0, num_points) exactly once (earlier shards take
 * the remainder). Journal and heartbeat paths land in @p dir as
 * shard-K.journal.ndjson / shard-K.heartbeat.json; specPath is left
 * for the caller. @p num_shards is clamped to [1, num_points].
 */
std::vector<ShardManifest> makeShardManifests(
    uint64_t num_points, int num_shards, const RowLogHeader &header,
    const std::string &dir);

/**
 * Merge shard journals into one table, byte-identical to a
 * single-process run of the same sweep.
 *
 * Every journal's header must match @p expect (HeaderMismatch
 * otherwise); a journal with mid-file corruption is refused (Corrupt);
 * a torn final record is skipped (the merge never mutates the files).
 * Duplicate points — e.g. a reassigned range recomputed by a second
 * shard — resolve last-write-wins in @p paths order, then journal
 * order. Rows come out in dense point order. Points no journal
 * covered are reported in @p missing (and the table then holds only
 * the covered points, in order): an incomplete merge is the
 * dispatcher's signal to relaunch, not an error here.
 */
JournalStatus mergeShardJournals(const std::vector<std::string> &paths,
                                 const RowLogHeader &expect,
                                 const std::vector<Column> &schema,
                                 Table *out,
                                 std::vector<uint64_t> *missing,
                                 std::string *err);

/**
 * Shard-side liveness beacon: one JSON line, atomically replaced, so
 * a reader never observes a torn beat and a SIGKILL leaves nothing to
 * clean up.
 */
class Heartbeat {
  public:
    Heartbeat() = default;
    Heartbeat(std::string path, int shard)
        : _path(std::move(path)), _shard(shard)
    {
    }

    /** Write {"shard":k,"beat":n,"completed":c} atomically. The beat
     *  counter increments every call, so a monitor distinguishes "no
     *  progress but alive" from "dead" without trusting mtimes. */
    bool beat(uint64_t completed, std::string *err = nullptr);

    uint64_t beats() const { return _beats; }

    /** Parsed heartbeat (the monitor/test side). */
    struct State {
        int shard = -1;
        uint64_t beat = 0;
        uint64_t completed = 0;
    };
    static bool load(const std::string &path, State *out,
                     std::string *err);

  private:
    std::string _path;
    int _shard = 0;
    uint64_t _beats = 0;
};

} // namespace sweep
} // namespace eq

#endif // EQ_SWEEP_SHARD_HH
