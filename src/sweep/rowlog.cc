/**
 * @file
 * RowLog implementation: the header codec, the record codec and the
 * one recovery scan shared by sweep journals and result caches, over
 * an O_APPEND fd.
 */

#include "sweep/rowlog.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "base/fsutil.hh"
#include "base/hash.hh"

namespace eq {
namespace sweep {

namespace {

using Kind = RowLogHeader::Kind;

/** Record payload (no CRC member yet) in canonical member order. */
std::string
recordPayload(Kind kind, size_t index, const std::string &key,
              const std::vector<Cell> &cells)
{
    serve::Json rec = serve::Json::object();
    if (kind == Kind::Journal)
        rec.set("i", static_cast<int64_t>(index));
    else
        rec.set("h", hexU64(hashKey(key)));
    rec.set("key", key);
    rec.set("cells", serve::cellsToJson(cells));
    return rec.dump();
}

/** Strict-parse one record line: JSON shape, the id (a journal index
 *  within the grid, or a cache key hash), schema-typed cells, and the
 *  CRC over the canonically re-dumped payload. */
bool
parseRecordLine(const std::string &line, const RowLogHeader &header,
                const std::vector<Column> &schema, RowRecord *out)
{
    serve::Json j;
    std::string err;
    if (!serve::Json::parse(line, &j, &err) || !j.isObject())
        return false;
    const serve::Json *jkey = j.find("key");
    const serve::Json *jcells = j.find("cells");
    const serve::Json *jcrc = j.find("crc");
    if (!jkey || !jkey->isStr() || !jcells || !jcrc || !jcrc->isInt())
        return false;
    int64_t index = 0;
    if (header.kind == Kind::Journal) {
        const serve::Json *ji = j.find("i");
        if (!ji || !ji->isInt())
            return false;
        index = ji->asInt();
        if (index < 0 || uint64_t(index) >= header.numPoints)
            return false;
    } else {
        const serve::Json *jh = j.find("h");
        if (!jh || !jh->isStr() ||
            jh->asStr() != hexU64(hashKey(jkey->asStr())))
            return false;
    }
    std::vector<Cell> cells;
    if (!serve::cellsFromJson(*jcells, schema, &cells, nullptr))
        return false;
    const std::string payload =
        recordPayload(header.kind, size_t(index), jkey->asStr(), cells);
    if (int64_t(fs::crc32(payload.data(), payload.size())) !=
        jcrc->asInt())
        return false;
    out->index = size_t(index);
    out->key = jkey->asStr();
    out->cells = std::move(cells);
    return true;
}

/** Newlines in @p text from @p pos on: the rows a drop loses. */
uint64_t
linesFrom(const std::string &text, size_t pos)
{
    return uint64_t(std::count(text.begin() + ptrdiff_t(pos), text.end(),
                               '\n'));
}

} // namespace

int
printError(const std::string &tool, ErrorCode code,
           const std::string &message)
{
    serve::Json e = serve::Json::object();
    e.set("code", errorCodeName(code));
    e.set("message", message);
    std::fprintf(stderr, "%s: error: %s\n", tool.c_str(),
                 e.dump().c_str());
    return exitCodeFor(code);
}

// ---------------------------------------------------------------------------
// RowLogHeader

serve::Json
RowLogHeader::toJson() const
{
    serve::Json out = serve::Json::object();
    if (kind == Kind::Journal)
        out.set("journal", "eqsweep");
    else
        out.set("cache", "eqsweep-results");
    out.set("version", kVersion);
    if (kind == Kind::Journal) {
        out.set("grid_hash", hexU64(gridHash));
        out.set("points", static_cast<int64_t>(numPoints));
    }
    out.set("schema", schemaSig);
    out.set("backend", backend);
    if (kind == Kind::Journal)
        out.set("salt", salt);
    return out;
}

bool
RowLogHeader::fromJson(const serve::Json &j, Kind kind,
                       RowLogHeader *out, std::string *err)
{
    auto bad = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    const bool journal = kind == Kind::Journal;
    const std::string tag = journal ? "journal" : "cache";
    if (!j.isObject() ||
        j.getStr(tag, "") != (journal ? "eqsweep" : "eqsweep-results"))
        return bad("not an eqsweep " + tag + " header");
    if (j.getInt("version", -1) != kVersion)
        return bad("unsupported " + tag + " version " +
                   std::to_string(j.getInt("version", -1)));
    *out = RowLogHeader();
    out->kind = kind;
    if (journal) {
        if (!hexToU64(j.getStr("grid_hash", ""), &out->gridHash))
            return bad("bad grid_hash");
        const int64_t points = j.getInt("points", -1);
        if (points < 0)
            return bad("bad points");
        out->numPoints = uint64_t(points);
        out->salt = j.getStr("salt", "");
    }
    out->schemaSig = j.getStr("schema", "");
    out->backend = j.getStr("backend", "");
    // "fuse":"off" names the removed unfused compiled mode, which must
    // match no current backend (and so is refused, never merged).
    if (j.getStr("fuse", "on") == "off")
        out->backend += " (unfused)";
    return true;
}

bool
RowLogHeader::matches(const RowLogHeader &o, std::string *why) const
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

RowLogHeader
gridIdentity(const std::vector<Point> &points,
             const std::vector<Column> &schema, std::string salt,
             const sim::EngineOptions &engine)
{
    RowLogHeader h;
    h.gridHash = hashPoints(points);
    h.numPoints = points.size();
    h.schemaSig = schemaSignature(schema);
    // Resolved exactly like every run's Simulator will (EQ_SIM_BACKEND
    // read once at construction).
    h.backend = sim::backendName(sim::resolveBackend(engine.backend));
    h.salt = std::move(salt);
    return h;
}

uint64_t
hashKey(const std::string &key)
{
    return fnv1aBytes(kFnvOffset, key);
}

// ---------------------------------------------------------------------------
// RowLog

RowLog::~RowLog() { close(); }

void
RowLog::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

RowLog::Recovery
RowLog::recover(const std::string &path, const RowLogHeader &expect,
                const std::vector<Column> &schema, Policy policy)
{
    Recovery rec;
    std::string text;
    if (!fs::readFile(path, &text, &rec.error)) {
        rec.status = ErrorCode::IoError;
        return rec;
    }

    // Header line. Whatever is wrong with it, every row behind it is
    // lost to this sweep.
    size_t headerEnd = text.find('\n');
    std::string herr;
    serve::Json hj;
    RowLogHeader header;
    if (headerEnd == std::string::npos) {
        rec.status = ErrorCode::JournalCorrupt;
        rec.tornHeader = true;
        rec.error = "header was torn (no complete header line)";
    } else if (!serve::Json::parse(text.substr(0, headerEnd), &hj,
                                   &herr) ||
               !RowLogHeader::fromJson(hj, expect.kind, &header,
                                       &herr)) {
        rec.status = ErrorCode::JournalCorrupt;
        rec.error = "unreadable header: " + herr;
    } else if (!header.matches(expect, &rec.error)) {
        rec.status = ErrorCode::JournalHeaderMismatch;
    }
    if (rec.status != ErrorCode::Ok) {
        rec.droppedRows = headerEnd == std::string::npos
                              ? 0
                              : linesFrom(text, headerEnd + 1);
        return rec;
    }

    // Record lines. Under Refuse exactly one damaged region is
    // tolerated and only when it is the final line (what a torn append
    // or a bit flip in the tail looks like); under Discard the first
    // bad line and everything after it are dropped.
    rec.keptBytes = headerEnd + 1;
    size_t pos = headerEnd + 1;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        const bool complete = nl != std::string::npos;
        RowRecord record;
        if (complete && parseRecordLine(text.substr(pos, nl - pos),
                                        header, schema, &record)) {
            rec.records.push_back(std::move(record));
            pos = nl + 1;
            rec.keptBytes = pos;
            continue;
        }
        if (policy == Policy::Refuse && complete && nl + 1 < text.size()) {
            rec.status = ErrorCode::JournalCorrupt;
            rec.error = "corrupt record at byte " + std::to_string(pos) +
                        " with valid data after it";
            rec.records.clear();
            return rec;
        }
        rec.truncatedBytes = text.size() - pos;
        rec.droppedRows = std::max<uint64_t>(1, linesFrom(text, pos));
        break;
    }
    return rec;
}

ErrorCode
RowLog::open(const std::string &path, const RowLogHeader &header,
             const std::vector<Column> &schema, Recovery *out)
{
    close();
    _kind = header.kind;
    Recovery &rec = *out;
    rec = Recovery();
    bool fresh = !fs::fileExists(path);
    if (!fresh) {
        rec = recover(path, header, schema, _policy);
        // A torn header is a create() that crashed before its fsync:
        // no record can exist. A discardable log starts over from any
        // header it cannot use.
        fresh = rec.status != ErrorCode::Ok &&
                rec.status != ErrorCode::IoError &&
                (rec.tornHeader || _policy == Policy::Discard);
        if (fresh) {
            rec.status = ErrorCode::Ok;
            rec.error.clear();
        } else if (rec.status != ErrorCode::Ok) {
            return rec.status;
        }
    }
    auto ioError = [&](const char *what) {
        rec.status = ErrorCode::IoError;
        rec.error = std::string(what) + " " + path + ": " +
                    std::strerror(errno);
        return rec.status;
    };
    if (!fresh && rec.truncatedBytes > 0 &&
        ::truncate(path.c_str(), off_t(rec.keptBytes)) != 0)
        return ioError("truncate");
    _fd = ::open(path.c_str(),
                 O_WRONLY | O_APPEND | (fresh ? O_CREAT | O_TRUNC : 0),
                 0644);
    if (_fd < 0)
        return ioError(fresh ? "create" : "open");
    // The header is the log's provenance: records must never hit the
    // disk before it does.
    if (fresh && !fs::writeSynced(_fd, header.toJson().dump() + "\n",
                                  "header " + path, &rec.error)) {
        close();
        rec.status = ErrorCode::IoError;
    }
    return rec.status;
}

bool
RowLog::append(size_t index, const std::string &key,
               const std::vector<Cell> &cells, std::string *err)
{
    const std::string line =
        fs::sealRecord(recordPayload(_kind, index, key, cells));
    std::lock_guard<std::mutex> lock(_mu);
    if (_fd < 0) {
        if (err)
            *err = "row log is not open";
        return false;
    }
    // One write(2) per record on an O_APPEND fd: concurrent appenders
    // never interleave, and a crash can only tear the final record.
    if (!fs::writeAll(_fd, line, "row log write", err))
        return false;
    if (_fsyncEach && ::fsync(_fd) != 0) {
        if (err)
            *err = std::string("row log fsync: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
RowLog::sync(std::string *err)
{
    std::lock_guard<std::mutex> lock(_mu);
    if (_fd >= 0 && ::fsync(_fd) != 0) {
        if (err)
            *err = std::string("row log fsync: ") + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace sweep
} // namespace eq
