/**
 * @file
 * The serving layer's model registry: every scenario family the daemon
 * can simulate, behind one value-typed key.
 *
 * A ModelKey names a scenario family (systolic / soc / pipeline) plus
 * the family's full structural config. Keys are value-comparable
 * (operator== compares the active config field-for-field) and FNV-1a
 * hashable — the ProgramCache keys on hash() but always verifies full
 * equality before reusing an entry, so hash collisions cost a rebuild,
 * never a wrong result.
 *
 * A SweepSpec is the serializable subset of a sweep::Grid — a base
 * ModelKey plus named integer axes applied on top of it per point.
 * The spec is shared verbatim by both execution paths: the daemon's
 * scheduler (rows streamed in completion order, tagged with the dense
 * point index) and runLocalSweep (an in-process SweepRunner). Both
 * produce rows through the same schema()/row() functions, which is
 * what makes a served sweep byte-identical to the in-process table
 * after the client re-merges rows by point index.
 *
 * runLocalSweepDurable is the one in-process sweep driver, behind
 * eqsweep and every bench harness. It alone builds the runner and its
 * session pool, keys each point's journal and cache rows on the
 * ModelKey the point simulates (contentKey) and salts the journal
 * with the content keys of the whole grid (sweepIdentity). A harness
 * whose fixed config or key rule changed is therefore refused by its
 * old journal and misses its old cache rows instead of replaying
 * them.
 */

#ifndef EQ_SERVE_MODELS_HH
#define EQ_SERVE_MODELS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/context.hh"
#include "ir/operation.hh"
#include "scalesim/scalesim.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "sim/engine.hh"
#include "soc/soc.hh"
#include "sweep/grid.hh"
#include "sweep/journal.hh"
#include "sweep/runner.hh"
#include "sweep/table.hh"

namespace eq {
namespace serve {

enum class ModelKind : uint8_t { Systolic, Soc, Pipeline };

const char *modelName(ModelKind kind);
/** Returns false for unknown names ("systolic"/"soc"/"pipeline"). */
bool modelFromName(const std::string &name, ModelKind *out);

/** One scenario family + its full structural config. */
struct ModelKey {
    ModelKind kind = ModelKind::Systolic;
    // Only the config matching `kind` is meaningful; the others stay
    // default-constructed so plain memberwise comparison of the active
    // one is well-defined.
    scalesim::Config systolic;
    soc::SocConfig soc;
    soc::PipelineConfig pipeline;

    static ModelKey systolicKey(const scalesim::Config &cfg);
    static ModelKey socKey(const soc::SocConfig &cfg);
    static ModelKey pipelineKey(const soc::PipelineConfig &cfg);

    /** FNV-1a over kind + the active config's structural hash. */
    uint64_t hash() const;

    /** Full structural equality (kind + active config operator==). */
    bool operator==(const ModelKey &o) const;
    bool operator!=(const ModelKey &o) const { return !(*this == o); }

    /** Build the family's module for this config. */
    ir::OwningOpRef build(ir::Context &ctx) const;
};

/** The family's default config (what a request's omitted "config"
 *  fields fall back to). */
ModelKey defaultKey(ModelKind kind);

/** Config <-> JSON, both folded over the configs' field tables
 *  (fields()): toJson dumps every field in table order; fromJson
 *  starts from defaultKey(kind) and overrides the fields present in
 *  @p config. Unknown fields, wrong types and values outside a field's
 *  declared range are errors naming the field, so typos never silently
 *  simulate the default and bad sizes never reach a generator. */
Json modelKeyToJson(const ModelKey &key);
bool modelKeyFromJson(ModelKind kind, const Json &config, ModelKey *out,
                      std::string *err);

/**
 * Apply one named sweep-axis value onto a key (e.g. "ah"=8 for
 * systolic, "tiles"=4 or "bus_bw"=16 for soc). The one-to-one axes
 * are the family's integer fields, under their wire names and ranges;
 * the composite axes are:
 *   systolic: hw (h and w), f (fh and fw), df (0 WS, 1 IS, 2 OS)
 *   soc:      tiles (N alternating WS/OS 2x2 tiles, the
 *             fig_soc_contention convention)
 * Returns false, with the reason in @p err, on an unknown axis or an
 * out-of-range value. Constraints across fields (fh <= h) are left to
 * SweepSpec::validate, which sees every axis of a point at once.
 */
bool applyAxis(ModelKey *key, const std::string &axis, int64_t value,
               std::string *err);

/** One named integer axis of a sweep request. */
struct SweepAxis {
    std::string name;
    std::vector<int64_t> values;
};

/** Parse the command-line spelling "name=v1,v2,..." of an axis. False
 *  on a missing name, an empty item or a value that is not a whole
 *  int64 (overflow included). Names and ranges are checked later, by
 *  SweepSpec::validate. */
bool parseAxis(const std::string &text, SweepAxis *out);

/** A serializable sweep: base config + axes (declaration order is the
 *  grid's axis order, so dense point indices match the nested loops). */
struct SweepSpec {
    ModelKey base;
    std::vector<SweepAxis> axes;

    /** The equivalent declarative grid (unfiltered). */
    sweep::Grid grid() const;

    /** Axis columns (request order) + the family's metric columns.
     *  Metric columns are simulation-deterministic only — no wall
     *  clock — so tables byte-compare across hosts and worker
     *  counts. */
    std::vector<sweep::Column> schema() const;

    /** The structural key simulated at @p point: base + axis
     *  overrides. Panics on axis names applyAxis rejects — specs must
     *  be validated (validate()) before points are expanded. */
    ModelKey keyAt(const sweep::Point &point) const;

    /** One result row for @p point (axis cells + metrics derived from
     *  @p report). */
    std::vector<sweep::Cell> row(const sweep::Point &point,
                                 const sim::SimReport &report) const;

    /** Check every grid point's resolved key: axis names, field
     *  ranges and the constraints across fields. */
    bool validate(std::string *err) const;

    Json toJson() const;
    static bool fromJson(const Json &request, SweepSpec *out,
                         std::string *err);
};

/** SRAM traffic of a systolic report, summed over every SRAM — the
 *  sram_rd_B / sram_wr_B metrics. */
struct SramTraffic {
    int64_t readBytes = 0;
    int64_t writeBytes = 0;
};
SramTraffic sramTraffic(const sim::SimReport &report);

/** Shared-bus traffic of a SoC report (the bus is the first connection
 *  the generator creates) — the bus_rd_B / bus_wr_B / bus_peak
 *  metrics; peakPortion is the peak read + write occupancy. */
struct BusTraffic {
    int64_t readBytes = 0;
    int64_t writeBytes = 0;
    double peakPortion = 0.0;
};
BusTraffic busTraffic(const sim::SimReport &report);

/** Content key of a point that simulates @p key, for the journal and
 *  the result cache: @p tag, the model name and the *full resolved
 *  config*, not the point's grid coordinates, so a config keeps
 *  hitting the cache after the grid around it changes. */
std::string contentKey(const std::string &tag, const ModelKey &key);

/**
 * What an in-process sweep of a spec simulates at each point and
 * which row it makes of that. Every default is eqsweep's; a harness
 * overrides the row (and may override the key) and tags its sweep.
 */
struct SweepRows {
    /** The ModelKey a point simulates. */
    using KeyFn = std::function<ModelKey(const sweep::Point &)>;
    /** The row of a point; @p handle pins the cached session of the
     *  point's key, and handle.run() simulates it. */
    using RowFn = std::function<std::vector<sweep::Cell>(
        const sweep::Point &, ProgramCache::Handle &handle)>;

    /** Prefix of every content key; "" for eqsweep, so its cache
     *  rows keep their bytes. */
    std::string tag;
    std::vector<sweep::Column> schema; ///< empty: spec.schema()
    RowFn row; ///< empty: spec.row over handle.run()
    KeyFn key; ///< empty: spec.keyAt
};

/** The journal header of a sweep of @p spec over the whole @p grid:
 *  sweep::gridIdentity over its points and the rows' schema, salted
 *  with the hex FNV-1a of every point's contentKey in dense order
 *  (through rows.key, as the rows are run), so a journal is refused
 *  when any point would simulate another config. The one identity of
 *  eqsweep's journal and cache and of every harness sweep. */
sweep::RowLogHeader sweepIdentity(const SweepSpec &spec,
                                  const sweep::Grid &grid,
                                  const SweepRows &rows,
                                  const sim::EngineOptions &engine);

/**
 * Run @p spec in-process through the SweepRunner on a ProgramCache
 * sized to its thread count — the reference the served path must reproduce
 * byte-identically. The same body as runLocalSweepDurable over the
 * full grid with no journal or cache.
 */
sweep::Table runLocalSweep(const SweepSpec &spec, unsigned threads = 0,
                           sim::EngineOptions engine = {});

/**
 * The one in-process sweep driver, behind eqsweep and the bench
 * harnesses: a SweepRunner with @p flags.threads threads over a
 * ProgramCache with one entry per thread, under the crash-safety
 * layer (sweep/journal.hh). Rows found in the journal (by dense
 * index) or the result cache (by contentKey of rows.key) are
 * replayed, the rest simulated through rows.row and journaled as
 * they complete; the journal header is sweepIdentity.
 *
 * @p grid is spec.grid(), possibly filtered. @p flags' csvPath is the
 * caller's. Table assembly and refusal semantics are
 * runJournaledSweep's.
 */
ErrorCode runLocalSweepDurable(
    const SweepSpec &spec, const sweep::Grid &grid,
    const sweep::SweepFlags &flags, const SweepRows &rows,
    sweep::Table *out, sweep::ResumeStats *stats, std::string *err);

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_MODELS_HH
