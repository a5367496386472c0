/**
 * @file
 * ResultCache implementation: a string-keyed map filled from, and
 * appended through, a Discard-policy row log.
 */

#include "sweep/resultcache.hh"

namespace eq {
namespace sweep {

bool
ResultCache::open(const std::string &path, const std::string &schema_sig,
                  const std::string &backend,
                  const std::vector<Column> &schema, std::string *err)
{
    _rows.clear();
    _stats = Stats();
    RowLogHeader header;
    header.kind = RowLogHeader::Kind::Cache;
    header.schemaSig = schema_sig;
    header.backend = backend;
    RowLog::Recovery rec;
    if (_log.open(path, header, schema, &rec) !=
        ErrorCode::Ok) {
        if (err)
            *err = rec.error;
        return false;
    }
    _stats.discarded = rec.droppedRows;
    for (RowRecord &record : rec.records)
        _stats.loaded +=
            _rows.emplace(std::move(record.key), std::move(record.cells))
                .second;
    return true;
}

const std::vector<Cell> *
ResultCache::lookup(const std::string &key)
{
    auto it = _rows.find(key);
    if (it == _rows.end()) {
        ++_stats.misses;
        return nullptr;
    }
    ++_stats.hits;
    return &it->second;
}

bool
ResultCache::append(const std::string &key,
                    const std::vector<Cell> &cells, std::string *err)
{
    if (_rows.count(key))
        return true; // first write wins; equal keys ⇒ equal rows
    if (!_log.append(0, key, cells, err))
        return false;
    _rows.emplace(key, cells);
    ++_stats.appended;
    return true;
}

} // namespace sweep
} // namespace eq
