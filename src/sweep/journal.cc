/**
 * @file
 * The journaled-sweep orchestration: replay (journal), content-keyed
 * reuse (result cache) and recomputation (SweepRunner) layered into
 * one table; the shared sweep flags and exit contract.
 */

#include "sweep/journal.hh"

#include <atomic>
#include <cstdio>

#include "base/logging.hh"
#include "base/stringutil.hh"
#include "sweep/resultcache.hh"

namespace eq {
namespace sweep {

namespace {

/** A row of the right arity and kinds that no one reads: what a worker
 *  returns instead of simulating once the journal has failed. */
std::vector<Cell>
placeholderRow(const std::vector<Column> &schema)
{
    std::vector<Cell> cells;
    cells.reserve(schema.size());
    for (const Column &col : schema) {
        switch (col.kind) {
        case ValueKind::Int: cells.emplace_back(int64_t(0)); break;
        case ValueKind::Real: cells.emplace_back(0.0); break;
        case ValueKind::Str: cells.emplace_back(""); break;
        }
    }
    return cells;
}

} // namespace

void
printResumeStats(const ResumeStats &st)
{
    std::fprintf(stderr,
                 "# resume: computed=%zu journal=%zu cache=%zu "
                 "truncated_bytes=%llu\n",
                 st.computed, st.fromJournal, st.fromCache,
                 static_cast<unsigned long long>(
                     st.journalTruncatedBytes));
}

ErrorCode
runJournaledSweep(const SweepRunner &runner,
                  const std::vector<Point> &points,
                  std::vector<Column> schema, const PointKeyFn &keyFn,
                  const SweepRunner::RowFn &fn,
                  const JournalOptions &opts,
                  const RowLogHeader &identity, Table *out,
                  ResumeStats *stats, std::string *err)
{
    ResumeStats local;
    ResumeStats &st = stats ? *stats : local;
    st = ResumeStats();
    auto fail = [&](ErrorCode status, const std::string &why) {
        if (err)
            *err = why;
        return status;
    };

    // Rows are addressed by dense point index, like journal records,
    // whose indices recovery bounds by the header's point count.
    eq_assert(identity.numPoints == points.size(),
              "journal identity is not this grid's");
    std::vector<std::vector<Cell>> rows(points.size());
    std::vector<bool> done(points.size(), false);

    // Content keys address the journal and the cache only; with
    // neither this is the plain SweepRunner path.
    const bool journaling = !opts.journalPath.empty();
    const bool caching = !opts.cachePath.empty();
    std::vector<std::string> keys(points.size());
    for (size_t s = 0; (journaling || caching) && s < points.size(); ++s)
        keys[s] = keyFn(points[s]);

    // 1) Replay the journal (authoritative for this exact grid).
    RowLog journal(RowLog::Policy::Refuse);
    if (journaling) {
        RowLog::Recovery rec;
        const ErrorCode status = journal.open(
            opts.journalPath, identity, schema, &rec);
        if (status != ErrorCode::Ok)
            return fail(status, rec.error);
        st.journalTruncatedBytes = rec.truncatedBytes;
        for (RowRecord &record : rec.records) {
            // Duplicates resolve last-write-wins (pinned): byte-
            // determinism makes honest duplicates identical anyway.
            if (!done[record.index])
                ++st.fromJournal;
            rows[record.index] = std::move(record.cells);
            done[record.index] = true;
        }
        journal.setFsyncEachRecord(opts.fsyncEachRecord);
    }

    // 2) Content-keyed cache fills what the journal did not.
    ResultCache cache;
    std::string ioErr;
    if (caching) {
        if (!cache.open(opts.cachePath, identity.schemaSig,
                        identity.backend, schema, &ioErr))
            return fail(ErrorCode::IoError, ioErr);
        for (size_t s = 0; s < points.size(); ++s) {
            if (done[s])
                continue;
            if (const std::vector<Cell> *hit = cache.lookup(keys[s])) {
                rows[s] = *hit;
                done[s] = true;
                ++st.fromCache;
                // Journal the replayed row too, so the journal alone
                // is a complete record of this grid.
                if (journaling &&
                    !journal.append(s, keys[s], rows[s], &ioErr))
                    return fail(ErrorCode::IoError, ioErr);
            }
        }
    }

    // 3) Compute the remainder, journaling each point as it lands.
    std::vector<Point> pending;
    for (size_t s = 0; s < points.size(); ++s)
        if (!done[s])
            pending.push_back(points[s]);
    if (!pending.empty()) {
        std::atomic<bool> failed{false};
        auto journaled = [&](const Point &p,
                             unsigned w) -> std::vector<Cell> {
            // Once the journal cannot take rows the sweep fails:
            // simulating the rest would only be thrown away.
            if (failed.load())
                return placeholderRow(schema);
            std::vector<Cell> cells = fn(p, w);
            std::string jerr;
            if (journaling &&
                !journal.append(p.index(), keys[p.index()], cells,
                                &jerr) &&
                !failed.exchange(true))
                ioErr = jerr; // the first failure names the error
            return cells;
        };
        Table fresh(schema);
        try {
            fresh = runner.run(pending, schema, journaled);
        } catch (...) {
            // A failed point fails the sweep; the rows journaled
            // before it stay durable for the rerun.
            if (journaling && !opts.fsyncEachRecord)
                journal.sync(nullptr);
            throw;
        }
        if (failed.load())
            return fail(ErrorCode::IoError, ioErr);
        for (size_t i = 0; i < pending.size(); ++i)
            rows[pending[i].index()] = fresh.row(i);
        st.computed = pending.size();
    }

    // Close-time durability when not fsync'ing per record.
    if (journaling && !opts.fsyncEachRecord && !journal.sync(&ioErr))
        return fail(ErrorCode::IoError, ioErr);

    // 4) Every row this sweep now holds is a valid cache entry
    //    (journal-replayed rows included — they re-seed a deleted
    //    cache from the journal).
    for (size_t s = 0; caching && s < points.size(); ++s)
        if (!cache.append(keys[s], rows[s], &ioErr))
            return fail(ErrorCode::IoError, ioErr);

    Table table(std::move(schema));
    for (auto &row : rows)
        table.addRow(std::move(row));
    *out = std::move(table);
    return ErrorCode::Ok;
}

SweepFlags::Parse
SweepFlags::parse(const std::string &tool, int argc, char **argv, int *i)
{
    const std::string arg = argv[*i];
    const bool valued = arg == "--threads" || arg == "--backend" ||
                        arg == "--journal" || arg == "--cache" ||
                        arg == "--csv";
    if (!valued && arg != "--fsync")
        return Parse::NotShared;
    auto bad = [&](const std::string &why) {
        printError(tool, ErrorCode::Usage, why);
        return Parse::Bad;
    };
    if (valued && *i + 1 >= argc)
        return bad(arg + " needs a value");
    const std::string value = valued ? argv[++*i] : "";
    if (arg == "--threads") {
        if (!parseInt(value, 1u, &threads))
            return bad("bad --threads '" + value + "' (want N >= 1)");
    } else if (arg == "--backend") {
        if (!sim::backendFromName(value, &engine.backend))
            return bad("bad --backend '" + value +
                       "' (want interp|compiled|auto)");
    } else if (arg == "--journal") {
        durability.journalPath = value;
    } else if (arg == "--cache") {
        durability.cachePath = value;
    } else if (arg == "--csv") {
        csvPath = value;
    } else {
        durability.fsyncEachRecord = true;
    }
    return Parse::Taken;
}

int
runSweepCommand(const std::string &tool, const JournalOptions &opts,
                const SweepCommand &sweep)
{
    ResumeStats stats;
    std::string err;
    ErrorCode status;
    try {
        status = sweep(&stats, &err);
    } catch (const Error &e) {
        return printError(tool, e.code(), e.what());
    }
    if (status != ErrorCode::Ok)
        return printError(tool, status, err);
    if (!opts.journalPath.empty() || !opts.cachePath.empty())
        printResumeStats(stats);
    return 0;
}

} // namespace sweep
} // namespace eq
