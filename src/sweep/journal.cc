/**
 * @file
 * Journal implementation: NDJSON header + CRC-protected records over
 * an O_APPEND fd, tail-truncating recovery, and the journaled-sweep
 * orchestration that layers replay (journal), content-keyed reuse
 * (result cache), and recomputation (SweepRunner) into one table.
 */

#include "sweep/journal.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

#include "base/fsutil.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "sweep/resultcache.hh"

namespace eq {
namespace sweep {

namespace {

/** Record payload (no CRC member yet) in canonical member order. */
std::string
recordPayload(size_t index, const std::string &key,
              const std::vector<Cell> &cells)
{
    serve::Json rec = serve::Json::object();
    rec.set("i", static_cast<int64_t>(index));
    rec.set("key", key);
    rec.set("cells", serve::cellsToJson(cells));
    return rec.dump();
}

/** Strict-parse one record line: JSON shape, schema-typed cells,
 *  index bounds, and the CRC over the canonically re-dumped payload
 *  (which also rejects any reordering or content tampering). */
bool
parseRecordLine(const std::string &line, uint64_t num_points,
                const std::vector<Column> &schema, JournalRecord *out)
{
    serve::Json j;
    std::string err;
    if (!serve::Json::parse(line, &j, &err) || !j.isObject())
        return false;
    const serve::Json *ji = j.find("i");
    const serve::Json *jkey = j.find("key");
    const serve::Json *jcells = j.find("cells");
    const serve::Json *jcrc = j.find("crc");
    if (!ji || !ji->isInt() || !jkey || !jkey->isStr() || !jcells ||
        !jcrc || !jcrc->isInt())
        return false;
    int64_t index = ji->asInt();
    if (index < 0 || uint64_t(index) >= num_points)
        return false;
    std::vector<Cell> cells;
    if (!serve::cellsFromJson(*jcells, schema, &cells, nullptr))
        return false;
    const std::string payload =
        recordPayload(size_t(index), jkey->asStr(), cells);
    uint32_t crc = fs::crc32(payload.data(), payload.size());
    if (int64_t(crc) != jcrc->asInt())
        return false;
    out->index = size_t(index);
    out->key = jkey->asStr();
    out->cells = std::move(cells);
    return true;
}

} // namespace

const char *
journalStatusName(JournalStatus status)
{
    switch (status) {
    case JournalStatus::Ok: return "ok";
    case JournalStatus::IoError: return "io_error";
    case JournalStatus::HeaderMismatch: return "journal_header_mismatch";
    case JournalStatus::Corrupt: return "journal_corrupt";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// JournalHeader

serve::Json
JournalHeader::toJson() const
{
    serve::Json out = serve::Json::object();
    out.set("journal", "eqsweep");
    out.set("version", kVersion);
    out.set("grid_hash", hexU64(gridHash));
    out.set("points", static_cast<int64_t>(numPoints));
    out.set("schema", schemaSig);
    out.set("backend", backend);
    out.set("salt", salt);
    return out;
}

bool
JournalHeader::fromJson(const serve::Json &j, JournalHeader *out,
                        std::string *err)
{
    if (!j.isObject() || j.getStr("journal", "") != "eqsweep") {
        if (err)
            *err = "not an eqsweep journal header";
        return false;
    }
    if (j.getInt("version", -1) != kVersion) {
        if (err)
            *err = "unsupported journal version " +
                   std::to_string(j.getInt("version", -1));
        return false;
    }
    if (!hexToU64(j.getStr("grid_hash", ""), &out->gridHash)) {
        if (err)
            *err = "bad grid_hash";
        return false;
    }
    int64_t points = j.getInt("points", -1);
    if (points < 0) {
        if (err)
            *err = "bad points";
        return false;
    }
    out->numPoints = uint64_t(points);
    out->schemaSig = j.getStr("schema", "");
    out->backend = j.getStr("backend", "");
    // Headers from before fusion was implied by the backend carry a
    // "fuse" field; "off" names the removed unfused compiled mode,
    // which must match no current backend (and so is refused, never
    // merged).
    if (j.getStr("fuse", "on") == "off")
        out->backend += " (unfused)";
    out->salt = j.getStr("salt", "");
    return true;
}

bool
JournalHeader::matches(const JournalHeader &o, std::string *why) const
{
    auto differ = [&](const char *field, const std::string &a,
                      const std::string &b) {
        if (why)
            *why = std::string(field) + " differs (journal: '" + a +
                   "', sweep: '" + b + "')";
        return false;
    };
    if (gridHash != o.gridHash)
        return differ("grid_hash", hexU64(gridHash), hexU64(o.gridHash));
    if (numPoints != o.numPoints)
        return differ("points", std::to_string(numPoints),
                      std::to_string(o.numPoints));
    if (schemaSig != o.schemaSig)
        return differ("schema", schemaSig, o.schemaSig);
    if (backend != o.backend)
        return differ("backend", backend, o.backend);
    if (salt != o.salt)
        return differ("salt", salt, o.salt);
    return true;
}

std::string
schemaSignature(const std::vector<Column> &schema)
{
    std::string sig;
    for (const auto &col : schema) {
        if (!sig.empty())
            sig += ';';
        sig += col.name;
        sig += ':';
        switch (col.kind) {
        case ValueKind::Int: sig += 'i'; break;
        case ValueKind::Real: sig += 'r'; break;
        case ValueKind::Str: sig += 's'; break;
        }
    }
    return sig;
}

uint64_t
hashPoints(const std::vector<Point> &points)
{
    uint64_t h = fnv1a(kFnvOffset, points.size());
    for (const auto &p : points) {
        h = fnv1a(h, p.index());
        for (int64_t v : p.values())
            h = fnv1a(h, uint64_t(v));
    }
    return h;
}

std::string
resolveEngineMode(const sim::EngineOptions &engine)
{
    // A throwaway Simulator resolves Auto exactly like every run will
    // (EQ_SIM_BACKEND read once at construction).
    return sim::Simulator(engine).backend() == sim::Backend::Compiled
               ? "compiled"
               : "interp";
}

// ---------------------------------------------------------------------------
// Journal

Journal::~Journal() { close(); }

void
Journal::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

bool
Journal::openAppend(const std::string &path, std::string *err)
{
    close();
    _fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (_fd < 0) {
        if (err)
            *err = "open " + path + ": " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
Journal::create(const std::string &path, const JournalHeader &header,
                std::string *err)
{
    close();
    _fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                 0644);
    if (_fd < 0) {
        if (err)
            *err = "create " + path + ": " + std::strerror(errno);
        return false;
    }
    // The header is the journal's provenance: records must never hit
    // the disk before it does.
    if (!fs::writeSynced(_fd, header.toJson().dump() + "\n",
                         "header " + path, err)) {
        close();
        return false;
    }
    return true;
}

Journal::Recovery
Journal::recover(const std::string &path, const JournalHeader *expect,
                 const std::vector<Column> &schema)
{
    Recovery rec;
    std::string text, err;
    if (!fs::readFile(path, &text, &err)) {
        rec.status = JournalStatus::IoError;
        rec.error = err;
        return rec;
    }

    // Header line. A file without any newline is a create() that never
    // reached its fsync — there cannot be records, so the caller may
    // start the journal over (headerValid stays false, keptBytes 0).
    size_t headerEnd = text.find('\n');
    if (headerEnd == std::string::npos) {
        rec.status = JournalStatus::Corrupt;
        rec.tornHeader = true;
        rec.error = "journal header was torn (no complete header line)";
        return rec;
    }
    std::string herr;
    serve::Json hj;
    if (!serve::Json::parse(text.substr(0, headerEnd), &hj, &herr) ||
        !JournalHeader::fromJson(hj, &rec.header, &herr)) {
        rec.status = JournalStatus::Corrupt;
        rec.error = "unreadable journal header: " + herr;
        return rec;
    }
    rec.headerValid = true;
    if (expect) {
        std::string why;
        if (!rec.header.matches(*expect, &why)) {
            rec.status = JournalStatus::HeaderMismatch;
            rec.error = why;
            return rec;
        }
    }

    // Record lines. Exactly one damaged region is tolerated and only
    // when it is the file's final line (what a torn append or a bit
    // flip in the not-yet-rotated tail looks like); a bad record with
    // valid records after it is real corruption.
    rec.keptBytes = headerEnd + 1;
    size_t pos = headerEnd + 1;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        const bool complete = nl != std::string::npos;
        const std::string line =
            text.substr(pos, complete ? nl - pos : std::string::npos);
        JournalRecord record;
        if (complete &&
            parseRecordLine(line, rec.header.numPoints, schema,
                            &record)) {
            rec.records.push_back(std::move(record));
            pos = nl + 1;
            rec.keptBytes = pos;
            continue;
        }
        // Bad line: tail-truncatable iff nothing follows it.
        const size_t after = complete ? nl + 1 : text.size();
        if (after < text.size()) {
            rec.status = JournalStatus::Corrupt;
            rec.error = "corrupt record at byte " + std::to_string(pos) +
                        " with valid data after it";
            rec.records.clear();
            return rec;
        }
        rec.truncatedBytes = text.size() - pos;
        break;
    }
    rec.status = JournalStatus::Ok;
    return rec;
}

JournalStatus
Journal::openResume(const std::string &path, const JournalHeader &expect,
                    Recovery *out_recovery)
{
    Recovery rec = recover(path, &expect, _schema);
    if (rec.tornHeader) {
        // Crash during create(): no records can exist; start over.
        rec = Recovery();
        rec.header = expect;
        std::string err;
        if (!create(path, expect, &err)) {
            rec.status = JournalStatus::IoError;
            rec.error = err;
        }
        *out_recovery = std::move(rec);
        return out_recovery->status;
    }
    if (rec.status != JournalStatus::Ok) {
        *out_recovery = std::move(rec);
        return out_recovery->status;
    }
    if (rec.truncatedBytes > 0 &&
        ::truncate(path.c_str(), off_t(rec.keptBytes)) != 0) {
        rec.status = JournalStatus::IoError;
        rec.error = "truncate " + path + ": " + std::strerror(errno);
        *out_recovery = std::move(rec);
        return out_recovery->status;
    }
    std::string err;
    if (!openAppend(path, &err)) {
        rec.status = JournalStatus::IoError;
        rec.error = err;
    }
    *out_recovery = std::move(rec);
    return out_recovery->status;
}

bool
Journal::append(size_t index, const std::string &key,
                const std::vector<Cell> &cells, std::string *err)
{
    const std::string line =
        fs::sealRecord(recordPayload(index, key, cells));
    std::lock_guard<std::mutex> lock(_mu);
    if (_fd < 0) {
        if (err)
            *err = "journal is not open";
        return false;
    }
    // One write(2) per record on an O_APPEND fd: concurrent appenders
    // never interleave, and a crash can only tear the final record.
    if (!fs::writeAll(_fd, line, "journal write", err))
        return false;
    if (_fsyncEach && ::fsync(_fd) != 0) {
        if (err)
            *err = std::string("journal fsync: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
Journal::sync(std::string *err)
{
    std::lock_guard<std::mutex> lock(_mu);
    if (_fd >= 0 && ::fsync(_fd) != 0) {
        if (err)
            *err = std::string("journal fsync: ") + std::strerror(errno);
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Journaled sweep orchestration

JournalStatus
runJournaledSweep(const SweepRunner &runner,
                  const std::vector<Point> &points,
                  std::vector<Column> schema, const PointKeyFn &keyFn,
                  const SweepRunner::RowFn &fn,
                  const JournalOptions &opts,
                  const sim::EngineOptions &engine, Table *out,
                  ResumeStats *stats, std::string *err)
{
    ResumeStats local;
    ResumeStats &st = stats ? *stats : local;
    st = ResumeStats();

    JournalHeader header;
    header.gridHash =
        opts.numPoints ? opts.gridHash : hashPoints(points);
    header.numPoints = opts.numPoints ? opts.numPoints : points.size();
    header.schemaSig = schemaSignature(schema);
    header.salt = opts.salt;
    header.backend = resolveEngineMode(engine);

    // Row slots by *position in @p points* (dense global indices may
    // be a shard's sub-range); journal/cache records address global
    // indices, so map them back.
    std::unordered_map<size_t, size_t> slotOf;
    slotOf.reserve(points.size());
    for (size_t s = 0; s < points.size(); ++s)
        slotOf.emplace(points[s].index(), s);
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
    Journal journal;
    journal.setSchema(schema);
    if (journaling && opts.resume && fs::fileExists(opts.journalPath)) {
        Journal::Recovery rec;
        if (journal.openResume(opts.journalPath, header, &rec) !=
            JournalStatus::Ok) {
            if (err)
                *err = rec.error;
            return rec.status;
        }
        st.journalTruncatedBytes = rec.truncatedBytes;
        for (auto &record : rec.records) {
            auto it = slotOf.find(record.index);
            if (it == slotOf.end())
                continue; // another shard's point
            // Duplicates resolve last-write-wins (pinned): byte-
            // determinism makes honest duplicates identical anyway.
            if (!done[it->second])
                ++st.fromJournal;
            rows[it->second] = std::move(record.cells);
            done[it->second] = true;
        }
    } else if (journaling) {
        std::string cerr_;
        if (!journal.create(opts.journalPath, header, &cerr_)) {
            if (err)
                *err = cerr_;
            return JournalStatus::IoError;
        }
    }
    journal.setFsyncEachRecord(opts.fsyncEachRecord);

    // 2) Content-keyed cache fills what the journal did not.
    ResultCache cache;
    if (caching) {
        std::string cerr_;
        if (!cache.open(opts.cachePath, header.schemaSig, header.backend,
                        schema, &cerr_)) {
            if (err)
                *err = cerr_;
            return JournalStatus::IoError;
        }
        for (size_t s = 0; s < points.size(); ++s) {
            if (done[s])
                continue;
            if (const std::vector<Cell> *hit = cache.lookup(keys[s])) {
                rows[s] = *hit;
                done[s] = true;
                ++st.fromCache;
                // Journal the replayed row too, so the journal alone
                // is a complete record of this grid (shard merges read
                // journals, not caches).
                if (journaling) {
                    std::string jerr;
                    if (!journal.append(points[s].index(), keys[s],
                                        rows[s], &jerr)) {
                        if (err)
                            *err = jerr;
                        return JournalStatus::IoError;
                    }
                }
            }
        }
    }

    // 3) Compute the remainder, journaling each point as it lands.
    std::vector<Point> pending;
    std::vector<size_t> pendingSlot;
    for (size_t s = 0; s < points.size(); ++s) {
        if (!done[s]) {
            pending.push_back(points[s]);
            pendingSlot.push_back(s);
        }
    }
    if (!pending.empty()) {
        std::atomic<bool> failed{false};
        std::string appendErr;
        std::mutex errMu;
        Table fresh = runner.run(
            pending, schema,
            [&](const Point &p, unsigned w) -> std::vector<Cell> {
                std::vector<Cell> cells = fn(p, w);
                if (journaling && !failed.load()) {
                    std::string jerr;
                    if (!journal.append(
                            p.index(),
                            keys[slotOf.find(p.index())->second], cells,
                            &jerr)) {
                        std::lock_guard<std::mutex> lock(errMu);
                        appendErr = jerr;
                        failed.store(true);
                    }
                }
                return cells;
            });
        if (failed.load()) {
            if (err)
                *err = appendErr;
            return JournalStatus::IoError;
        }
        for (size_t i = 0; i < pendingSlot.size(); ++i) {
            rows[pendingSlot[i]] = fresh.row(i);
            done[pendingSlot[i]] = true;
        }
        st.computed = pending.size();
    }

    // Close-time durability when not fsync'ing per record.
    if (journaling && !opts.fsyncEachRecord) {
        std::string serr;
        if (!journal.sync(&serr)) {
            if (err)
                *err = serr;
            return JournalStatus::IoError;
        }
    }

    // 4) Every row this sweep now holds is a valid cache entry
    //    (journal-replayed rows included — they re-seed a deleted
    //    cache from the journal).
    if (caching) {
        for (size_t s = 0; s < points.size(); ++s) {
            std::string cerr_;
            if (!cache.append(keys[s], rows[s], &cerr_)) {
                if (err)
                    *err = cerr_;
                return JournalStatus::IoError;
            }
        }
    }

    Table table(std::move(schema));
    for (auto &row : rows)
        table.addRow(std::move(row));
    *out = std::move(table);
    return JournalStatus::Ok;
}

} // namespace sweep
} // namespace eq
