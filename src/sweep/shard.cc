/**
 * @file
 * Shard manifests, the deterministic shard-journal merge, and the
 * heartbeat beacon. See shard.hh for the dispatch model.
 */

#include "sweep/shard.hh"

#include <map>

#include "base/fsutil.hh"

namespace eq {
namespace sweep {

// ---------------------------------------------------------------------------
// ShardManifest

serve::Json
ShardManifest::toJson() const
{
    serve::Json out = serve::Json::object();
    out.set("manifest", "eqsweep-shard");
    out.set("shard", shard);
    out.set("num_shards", numShards);
    out.set("begin", static_cast<int64_t>(beginPoint));
    out.set("end", static_cast<int64_t>(endPoint));
    out.set("header", header.toJson());
    out.set("spec", specPath);
    out.set("journal", journalPath);
    out.set("heartbeat", heartbeatPath);
    return out;
}

bool
ShardManifest::fromJson(const serve::Json &j, ShardManifest *out,
                        std::string *err)
{
    if (!j.isObject() || j.getStr("manifest", "") != "eqsweep-shard") {
        if (err)
            *err = "not an eqsweep shard manifest";
        return false;
    }
    out->shard = int(j.getInt("shard", -1));
    out->numShards = int(j.getInt("num_shards", 0));
    int64_t begin = j.getInt("begin", -1);
    int64_t end = j.getInt("end", -1);
    const serve::Json *header = j.find("header");
    if (out->shard < 0 || out->numShards <= out->shard || begin < 0 ||
        end < begin || !header) {
        if (err)
            *err = "malformed shard manifest";
        return false;
    }
    out->beginPoint = uint64_t(begin);
    out->endPoint = uint64_t(end);
    if (!RowLogHeader::fromJson(*header, RowLogHeader::Kind::Journal,
                                &out->header, err))
        return false;
    if (out->endPoint > out->header.numPoints) {
        if (err)
            *err = "shard range exceeds the grid";
        return false;
    }
    out->specPath = j.getStr("spec", "");
    out->journalPath = j.getStr("journal", "");
    out->heartbeatPath = j.getStr("heartbeat", "");
    return true;
}

bool
ShardManifest::save(const std::string &path, std::string *err) const
{
    return fs::writeFileAtomic(path, toJson().dump() + "\n", err);
}

bool
ShardManifest::load(const std::string &path, ShardManifest *out,
                    std::string *err)
{
    std::string text;
    if (!fs::readFile(path, &text, err))
        return false;
    serve::Json j;
    std::string perr;
    if (!serve::Json::parse(text, &j, &perr)) {
        if (err)
            *err = "parse " + path + ": " + perr;
        return false;
    }
    return fromJson(j, out, err);
}

std::vector<ShardManifest>
makeShardManifests(uint64_t num_points, int num_shards,
                   const RowLogHeader &header, const std::string &dir)
{
    if (num_shards < 1)
        num_shards = 1;
    if (uint64_t(num_shards) > num_points && num_points > 0)
        num_shards = int(num_points);

    std::vector<ShardManifest> out;
    const uint64_t base = num_points / uint64_t(num_shards);
    const uint64_t extra = num_points % uint64_t(num_shards);
    uint64_t begin = 0;
    for (int k = 0; k < num_shards; ++k) {
        ShardManifest m;
        m.shard = k;
        m.numShards = num_shards;
        m.beginPoint = begin;
        m.endPoint = begin + base + (uint64_t(k) < extra ? 1 : 0);
        begin = m.endPoint;
        m.header = header;
        m.journalPath =
            dir + "/shard-" + std::to_string(k) + ".journal.ndjson";
        m.heartbeatPath =
            dir + "/shard-" + std::to_string(k) + ".heartbeat.json";
        out.push_back(std::move(m));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Merge

JournalStatus
mergeShardJournals(const std::vector<std::string> &paths,
                   const RowLogHeader &expect,
                   const std::vector<Column> &schema, Table *out,
                   std::vector<uint64_t> *missing, std::string *err)
{
    // Dense index -> row; later insertions (later paths / later
    // records) overwrite earlier ones: last-write-wins.
    std::map<uint64_t, std::vector<Cell>> rows;
    for (const std::string &path : paths) {
        RowLog::Recovery rec = RowLog::recover(path, expect, schema,
                                               RowLog::Policy::Refuse);
        if (rec.status != JournalStatus::Ok) {
            if (err)
                *err = path + ": " + rec.error;
            return rec.status;
        }
        for (auto &record : rec.records)
            rows[record.index] = std::move(record.cells);
    }

    if (missing) {
        missing->clear();
        for (uint64_t i = 0; i < expect.numPoints; ++i)
            if (!rows.count(i))
                missing->push_back(i);
    }

    Table table{std::vector<Column>(schema)};
    for (auto &entry : rows)
        table.addRow(std::move(entry.second));
    *out = std::move(table);
    return JournalStatus::Ok;
}

// ---------------------------------------------------------------------------
// Heartbeat

bool
Heartbeat::beat(uint64_t completed, std::string *err)
{
    ++_beats;
    serve::Json j = serve::Json::object();
    j.set("shard", _shard);
    j.set("beat", static_cast<int64_t>(_beats));
    j.set("completed", static_cast<int64_t>(completed));
    return fs::writeFileAtomic(_path, j.dump() + "\n", err);
}

bool
Heartbeat::load(const std::string &path, State *out, std::string *err)
{
    std::string text;
    if (!fs::readFile(path, &text, err))
        return false;
    serve::Json j;
    std::string perr;
    if (!serve::Json::parse(text, &j, &perr) || !j.isObject()) {
        if (err)
            *err = "parse " + path + ": " + perr;
        return false;
    }
    out->shard = int(j.getInt("shard", -1));
    out->beat = uint64_t(j.getInt("beat", 0));
    out->completed = uint64_t(j.getInt("completed", 0));
    return true;
}

} // namespace sweep
} // namespace eq
