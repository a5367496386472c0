#include "serve/models.hh"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "base/hash.hh"
#include "base/stringutil.hh"
#include "serve/cache.hh"
#include "systolic/generator.hh"

namespace eq {
namespace serve {

namespace {

/** Wire names of ModelKind, indexed by value. */
constexpr const char *kModelNames[] = {"systolic", "soc", "pipeline"};

/** Call @p f with the ModelKey member holding @p kind's config. */
template <class F>
auto
withConfig(ModelKind kind, F &&f)
{
    switch (kind) {
    case ModelKind::Soc: return f(&ModelKey::soc);
    case ModelKind::Pipeline: return f(&ModelKey::pipeline);
    case ModelKind::Systolic: break;
    }
    return f(&ModelKey::systolic);
}

} // namespace

// ---------------------------------------------------------------------------
// ModelKind / ModelKey

const char *
modelName(ModelKind kind)
{
    const size_t i = size_t(kind);
    return i < std::size(kModelNames) ? kModelNames[i] : "?";
}

bool
modelFromName(const std::string &name, ModelKind *out)
{
    for (size_t i = 0; i < std::size(kModelNames); ++i) {
        if (name == kModelNames[i]) {
            *out = static_cast<ModelKind>(i);
            return true;
        }
    }
    return false;
}

ModelKey
ModelKey::systolicKey(const scalesim::Config &cfg)
{
    return {ModelKind::Systolic, cfg, {}, {}};
}

ModelKey
ModelKey::socKey(const soc::SocConfig &cfg)
{
    return {ModelKind::Soc, {}, cfg, {}};
}

ModelKey
ModelKey::pipelineKey(const soc::PipelineConfig &cfg)
{
    return {ModelKind::Pipeline, {}, {}, cfg};
}

uint64_t
ModelKey::hash() const
{
    const uint64_t h = fnv1a(kFnvOffset, uint64_t(kind));
    return fnv1a(h, withConfig(kind, [&](auto m) {
                     return (this->*m).hash();
                 }));
}

bool
ModelKey::operator==(const ModelKey &o) const
{
    return kind == o.kind &&
           withConfig(kind, [&](auto m) { return this->*m == o.*m; });
}

ir::OwningOpRef
ModelKey::build(ir::Context &ctx) const
{
    switch (kind) {
    case ModelKind::Systolic:
        return systolic::buildSystolicModule(ctx, systolic);
    case ModelKind::Soc: return soc::buildSocModule(ctx, soc);
    case ModelKind::Pipeline:
        return soc::buildPipelineModule(ctx, pipeline);
    }
    return ir::OwningOpRef();
}

ModelKey
defaultKey(ModelKind kind)
{
    return {kind, {}, {}, {}}; // default configs are family defaults
}

// ---------------------------------------------------------------------------
// Config <-> JSON, folded over the configs' field tables

namespace {

template <class S>
Json
encode(const S &s)
{
    Json out = Json::object();
    forEachField(S::fields(), [&](const auto &f) {
        const auto &v = s.*(f.member);
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_enum_v<T>) {
            out.set(f.name, f.names[size_t(v)]);
        } else if constexpr (kIsList<T>) {
            Json list = Json::array();
            for (const auto &entry : v)
                list.push(encode(entry));
            out.set(f.name, std::move(list));
        } else {
            out.set(f.name, v);
        }
    });
    return out;
}

/** Range-check @p v against @p f, then store it. */
template <class S, class T>
bool
assignInt(const IntField<S, T> &f, int64_t v, S *s, std::string *err)
{
    if (v < f.min || v > f.max) {
        *err = "config field '" + std::string(f.name) + "' must be in [" +
               std::to_string(f.min) + ", " + std::to_string(f.max) + "]";
        return false;
    }
    s->*(f.member) = static_cast<T>(v);
    return true;
}

template <class S>
bool decode(const Json &obj, const std::string &label, S *s,
            std::string *err);

template <class S, class T>
bool
decodeField(const IntField<S, T> &f, const Json &v, S *s, std::string *err)
{
    if (!v.isNumber() || !v.isInt()) {
        *err = "config field '" + std::string(f.name) +
               "' must be an integer";
        return false;
    }
    return assignInt(f, v.asInt(), s, err);
}

template <class S, class T, size_t N>
bool
decodeField(const EnumField<S, T, N> &f, const Json &v, S *s,
            std::string *err)
{
    for (size_t i = 0; v.isStr() && i < N; ++i) {
        if (v.asStr() == f.names[i]) {
            if constexpr (std::is_enum_v<T>)
                s->*(f.member) = static_cast<T>(i);
            else
                s->*(f.member) = v.asStr();
            return true;
        }
    }
    *err = "config field '" + std::string(f.name) + "' must be ";
    for (size_t i = 0; i < N; ++i) {
        *err += i == 0 ? "" : i + 1 == N ? " or " : ", ";
        *err += "\"" + std::string(f.names[i]) + "\"";
    }
    return false;
}

template <class S, class E>
bool
decodeField(const ListField<S, E> &f, const Json &v, S *s,
            std::string *err)
{
    const std::string name = f.name;
    if (!v.isArray()) {
        *err = "config field '" + name + "' must be an array";
        return false;
    }
    if (v.items().size() < f.minEntries) {
        *err = "config field '" + name + "' needs at least " +
               std::to_string(f.minEntries) +
               (f.minEntries == 1 ? " entry" : " entries");
        return false;
    }
    std::vector<E> &list = s->*(f.member);
    list.clear();
    for (const Json &entry : v.items()) {
        if (!entry.isObject()) {
            *err = std::string(f.label) + " entries must be objects";
            return false;
        }
        list.emplace_back();
        if (!decode(entry, f.label, &list.back(), err))
            return false;
    }
    return true;
}

/** Override the fields of @p s present in @p obj; @p label names S in
 *  the unknown-field error. */
template <class S>
bool
decode(const Json &obj, const std::string &label, S *s, std::string *err)
{
    for (const auto &m : obj.members()) {
        bool found = false;
        bool ok = true;
        forEachField(S::fields(), [&](const auto &f) {
            if (!found && m.first == f.name) {
                found = true;
                ok = decodeField(f, m.second, s, err);
            }
        });
        if (!found)
            *err = "unknown " + label + " field '" + m.first + "'";
        if (!found || !ok)
            return false;
    }
    return true;
}

/** Sweep axes are the integer fields (plus applyAxis's composites). */
template <class F>
constexpr bool kIsAxis = false;
template <class S, class T>
constexpr bool kIsAxis<IntField<S, T>> = true;

/** Constraints between fields, which no single field's range in the
 *  tables expresses. */
bool
checkCrossFields(const ModelKey &key, std::string *err)
{
    const scalesim::Config &c = key.systolic;
    if (key.kind == ModelKind::Systolic && (c.fh > c.h || c.fw > c.w)) {
        *err = c.fh > c.h ? "config field 'fh' must not exceed 'h'"
                          : "config field 'fw' must not exceed 'w'";
        return false;
    }
    return true;
}

} // namespace

Json
modelKeyToJson(const ModelKey &key)
{
    return withConfig(key.kind, [&](auto m) { return encode(key.*m); });
}

bool
modelKeyFromJson(ModelKind kind, const Json &config, ModelKey *out,
                 std::string *err)
{
    *out = defaultKey(kind);
    if (config.isNull())
        return true; // omitted config: the family default
    if (!config.isObject()) {
        *err = "\"config\" must be an object";
        return false;
    }
    const std::string label = std::string(modelName(kind)) + " config";
    return withConfig(kind, [&](auto m) {
               return decode(config, label, &(out->*m), err);
           }) &&
           checkCrossFields(*out, err);
}

// ---------------------------------------------------------------------------
// Sweep axes

bool
applyAxis(ModelKey *key, const std::string &axis, int64_t value,
          std::string *err)
{
    // Composite axes first; every other axis is an integer field.
    if (key->kind == ModelKind::Systolic) {
        if (axis == "hw")
            return applyAxis(key, "h", value, err) &&
                   applyAxis(key, "w", value, err);
        if (axis == "f")
            return applyAxis(key, "fh", value, err) &&
                   applyAxis(key, "fw", value, err);
        if (axis == "df") {
            if (value < 0 || value > 2) {
                *err = "axis 'df' takes 0 (WS), 1 (IS) or 2 (OS)";
                return false;
            }
            key->systolic.dataflow = static_cast<scalesim::Dataflow>(value);
            return true;
        }
    }
    if (key->kind == ModelKind::Soc && axis == "tiles") {
        if (value < 1) {
            *err = "axis 'tiles' must be >= 1";
            return false;
        }
        // The fig_soc_contention convention: N alternating WS/OS
        // 2x2 tiles on 8 B/cyc private links, so the bus carries both
        // boundary reads (everyone) and WS result writes / OS operand
        // streams.
        auto &accels = key->soc.accels;
        accels.clear();
        for (int64_t a = 0; a < value; ++a) {
            soc::TileSpec t;
            t.ah = t.aw = 2;
            t.dataflow = (a % 2 == 0) ? scalesim::Dataflow::WS
                                      : scalesim::Dataflow::OS;
            t.linkBytesPerCycle = 8;
            accels.push_back(t);
        }
        return true;
    }
    bool found = false;
    bool ok = withConfig(key->kind, [&](auto m) {
        auto &cfg = key->*m;
        bool set = false;
        forEachField(cfg.fields(), [&](const auto &f) {
            if constexpr (kIsAxis<std::decay_t<decltype(f)>>) {
                if (!found && axis == f.name) {
                    found = true;
                    set = assignInt(f, value, &cfg, err);
                }
            }
        });
        return set;
    });
    if (!found)
        *err = "unknown " + std::string(modelName(key->kind)) + " axis '" +
               axis + "'";
    return found && ok;
}

bool
parseAxis(const std::string &text, SweepAxis *out)
{
    const size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    out->name = text.substr(0, eq);
    out->values.clear();
    for (size_t pos = eq + 1;;) {
        const size_t comma = std::min(text.find(',', pos), text.size());
        int64_t v = 0;
        if (!parseInt(text.substr(pos, comma - pos), INT64_MIN, INT64_MAX,
                      &v))
            return false;
        out->values.push_back(v);
        if (comma == text.size())
            return true;
        pos = comma + 1;
    }
}

// ---------------------------------------------------------------------------
// SweepSpec

sweep::Grid
SweepSpec::grid() const
{
    sweep::Grid g;
    for (const auto &a : axes)
        g.axis(a.name, a.values);
    return g;
}

std::vector<sweep::Column>
SweepSpec::schema() const
{
    std::vector<sweep::Column> cols;
    for (const auto &a : axes)
        cols.push_back({a.name, sweep::ValueKind::Int, 6, 0});
    switch (base.kind) {
    case ModelKind::Systolic:
        cols.push_back({"cycles", sweep::ValueKind::Int, 12, 0});
        cols.push_back({"ops", sweep::ValueKind::Int, 12, 0});
        cols.push_back({"sram_rd_B", sweep::ValueKind::Int, 10, 0});
        cols.push_back({"sram_wr_B", sweep::ValueKind::Int, 10, 0});
        break;
    case ModelKind::Soc:
        cols.push_back({"cycles", sweep::ValueKind::Int, 10, 0});
        cols.push_back({"ops", sweep::ValueKind::Int, 12, 0});
        cols.push_back({"bus_rd_B", sweep::ValueKind::Int, 10, 0});
        cols.push_back({"bus_wr_B", sweep::ValueKind::Int, 10, 0});
        cols.push_back({"bus_peak", sweep::ValueKind::Real, 9, 3});
        break;
    case ModelKind::Pipeline:
        cols.push_back({"cycles", sweep::ValueKind::Int, 10, 0});
        cols.push_back({"ops", sweep::ValueKind::Int, 12, 0});
        cols.push_back({"conn_wr_B", sweep::ValueKind::Int, 10, 0});
        break;
    }
    return cols;
}

namespace {

/** spec.base with @p point's axis values applied; false (with *err)
 *  on a bad axis name or value. */
bool
resolveKey(const SweepSpec &spec, const sweep::Point &point,
           ModelKey *key, std::string *err)
{
    *key = spec.base;
    for (const auto &a : spec.axes) {
        if (!applyAxis(key, a.name, point.at(a.name), err))
            return false;
    }
    return true;
}

} // namespace

ModelKey
SweepSpec::keyAt(const sweep::Point &point) const
{
    ModelKey key;
    std::string err;
    bool ok = resolveKey(*this, point, &key, &err);
    assert(ok && "SweepSpec::keyAt on unvalidated spec");
    (void)ok;
    return key;
}

SramTraffic
sramTraffic(const sim::SimReport &report)
{
    SramTraffic t;
    for (const auto &m : report.memories) {
        if (m.kind == "SRAM") {
            t.readBytes += m.bytesRead;
            t.writeBytes += m.bytesWritten;
        }
    }
    return t;
}

BusTraffic
busTraffic(const sim::SimReport &report)
{
    BusTraffic t;
    if (!report.connections.empty()) {
        const auto &bus = report.connections.front();
        t.readBytes = bus.readBytes;
        t.writeBytes = bus.writeBytes;
        t.peakPortion = bus.maxBwPortionRead + bus.maxBwPortionWrite;
    }
    return t;
}

std::vector<sweep::Cell>
SweepSpec::row(const sweep::Point &point,
               const sim::SimReport &report) const
{
    std::vector<sweep::Cell> cells;
    for (const auto &a : axes)
        cells.push_back(point.at(a.name));
    switch (base.kind) {
    case ModelKind::Systolic: {
        const SramTraffic sram = sramTraffic(report);
        cells.push_back(static_cast<int64_t>(report.cycles));
        cells.push_back(static_cast<int64_t>(report.opsExecuted));
        cells.push_back(sram.readBytes);
        cells.push_back(sram.writeBytes);
        break;
    }
    case ModelKind::Soc: {
        const BusTraffic bus = busTraffic(report);
        cells.push_back(static_cast<int64_t>(report.cycles));
        cells.push_back(static_cast<int64_t>(report.opsExecuted));
        cells.push_back(bus.readBytes);
        cells.push_back(bus.writeBytes);
        cells.push_back(bus.peakPortion);
        break;
    }
    case ModelKind::Pipeline: {
        int64_t wr = 0;
        for (const auto &conn : report.connections)
            wr += conn.writeBytes;
        cells.push_back(static_cast<int64_t>(report.cycles));
        cells.push_back(static_cast<int64_t>(report.opsExecuted));
        cells.push_back(wr);
        break;
    }
    }
    return cells;
}

bool
SweepSpec::validate(std::string *err) const
{
    if (axes.empty()) {
        *err = "sweep needs at least one axis";
        return false;
    }
    for (const auto &a : axes) {
        if (a.values.empty()) {
            *err = "axis '" + a.name + "' has no values";
            return false;
        }
    }
    // Every resolved point, not every value: a cross-field constraint
    // (fh <= h) can fail only for some combinations of axis values.
    const sweep::Grid g = grid();
    for (const sweep::Point &p : g.points()) {
        ModelKey key;
        if (!resolveKey(*this, p, &key, err) ||
            !checkCrossFields(key, err)) {
            *err += " (sweep point " + std::to_string(p.index()) + ")";
            return false;
        }
    }
    return true;
}

Json
SweepSpec::toJson() const
{
    Json out = Json::object();
    out.set("op", "sweep");
    out.set("model", modelName(base.kind));
    out.set("config", modelKeyToJson(base));
    Json jaxes = Json::array();
    for (const auto &a : axes) {
        Json ja = Json::object();
        ja.set("name", a.name);
        Json vals = Json::array();
        for (int64_t v : a.values)
            vals.push(v);
        ja.set("values", std::move(vals));
        jaxes.push(std::move(ja));
    }
    out.set("axes", std::move(jaxes));
    return out;
}

bool
SweepSpec::fromJson(const Json &request, SweepSpec *out,
                    std::string *err)
{
    ModelKind kind;
    if (!modelFromName(request.getStr("model", ""), &kind)) {
        *err = "unknown or missing \"model\"";
        return false;
    }
    const Json *config = request.find("config");
    if (!modelKeyFromJson(kind, config ? *config : Json(), &out->base,
                          err))
        return false;
    out->axes.clear();
    const Json *jaxes = request.find("axes");
    if (!jaxes || !jaxes->isArray()) {
        *err = "sweep request needs an \"axes\" array";
        return false;
    }
    for (const Json &ja : jaxes->items()) {
        if (!ja.isObject()) {
            *err = "axis entries must be objects";
            return false;
        }
        SweepAxis axis;
        axis.name = ja.getStr("name", "");
        if (axis.name.empty()) {
            *err = "axis entry missing \"name\"";
            return false;
        }
        const Json *vals = ja.find("values");
        if (!vals || !vals->isArray()) {
            *err = "axis '" + axis.name + "' missing \"values\"";
            return false;
        }
        for (const Json &v : vals->items()) {
            if (!v.isInt()) {
                *err = "axis '" + axis.name +
                       "' values must be integers";
                return false;
            }
            axis.values.push_back(v.asInt());
        }
        out->axes.push_back(std::move(axis));
    }
    return out->validate(err);
}

// ---------------------------------------------------------------------------
// In-process sweeps

std::string
contentKey(const std::string &tag, const ModelKey &key)
{
    return tag + modelName(key.kind) + " " + modelKeyToJson(key).dump();
}

namespace {

/** The ModelKey @p rows simulate at @p p. */
ModelKey
rowKey(const SweepSpec &spec, const SweepRows &rows, const sweep::Point &p)
{
    return rows.key ? rows.key(p) : spec.keyAt(p);
}

} // namespace

sweep::RowLogHeader
sweepIdentity(const SweepSpec &spec, const sweep::Grid &grid,
              const SweepRows &rows, const sim::EngineOptions &engine)
{
    const std::vector<sweep::Point> points = grid.points();
    uint64_t h = kFnvOffset;
    for (const sweep::Point &p : points) {
        const std::string key = contentKey(rows.tag, rowKey(spec, rows, p));
        h = fnv1a(fnv1aBytes(h, key), key.size());
    }
    return sweep::gridIdentity(
        points, rows.schema.empty() ? spec.schema() : rows.schema,
        hexU64(h), engine);
}

sweep::Table
runLocalSweep(const SweepSpec &spec, unsigned threads,
              sim::EngineOptions engine)
{
    sweep::SweepFlags flags;
    flags.threads = threads;
    flags.engine = engine;
    sweep::Table table{spec.schema()};
    sweep::JournalStatus status = runLocalSweepDurable(
        spec, spec.grid(), flags, {}, &table, nullptr, nullptr);
    // Without a journal or a cache there is nothing to refuse.
    assert(status == sweep::JournalStatus::Ok);
    (void)status;
    return table;
}

sweep::JournalStatus
runLocalSweepDurable(const SweepSpec &spec, const sweep::Grid &grid,
                     const sweep::SweepFlags &flags, const SweepRows &rows,
                     sweep::Table *out, sweep::ResumeStats *stats,
                     std::string *err, std::pair<uint64_t, uint64_t> shard)
{
    const std::vector<sweep::Point> points = grid.points();
    const auto [begin, end] =
        sweep::shardStripe(points.size(), shard.first, shard.second);
    const std::vector<sweep::Point> slice(points.begin() + ptrdiff_t(begin),
                                          points.begin() + ptrdiff_t(end));
    const sweep::SweepRunner runner({flags.threads});
    ProgramCache cache(runner.threadsFor(slice.size()), flags.engine);
    return sweep::runJournaledSweep(
        runner, slice, rows.schema.empty() ? spec.schema() : rows.schema,
        [&](const sweep::Point &p) {
            return contentKey(rows.tag, rowKey(spec, rows, p));
        },
        [&](const sweep::Point &p, unsigned) -> std::vector<sweep::Cell> {
            ProgramCache::Handle handle =
                cache.acquire(rowKey(spec, rows, p));
            return rows.row ? rows.row(p, handle) : spec.row(p, handle.run());
        },
        flags.durability, sweepIdentity(spec, grid, rows, flags.engine),
        out, stats, err);
}

} // namespace serve
} // namespace eq
