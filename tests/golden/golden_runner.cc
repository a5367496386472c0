/**
 * @file
 * Golden-trace regression harness: drives the complete
 * lowering->simulation pipeline for the paper's headline scenarios and
 * diffs the observable outcome — SimReport cycle counts, per-connection
 * bandwidths, per-memory traffic, per-processor utilization, and the
 * normalized Chrome-trace event stream — against checked-in golden
 * files under tests/golden/data/.
 *
 * Scenarios:
 *   fir_aie_case3 / fir_aie_case4   32-tap FIR on Versal AI Engines
 *                                   (Section VII design points 3/4,
 *                                   bandwidth-limited stream links)
 *   systolic_{4x4,8x8}_{ws,os}      conv lowered through the full
 *                                   Linalg->Affine->Reassign->Systolic
 *                                   pass pipeline (Section VI-D), then
 *                                   simulated on the event-queue engine
 *   soc_dual_shared_bus             two WS tiles contending for one
 *                                   bus + DMA + shared SRAM
 *   soc_pipeline_buffered           layer pipeline chained through
 *                                   on-chip buffers, in/out DMAs
 *   soc_hetero_starved              WS+OS mix behind a narrow Window
 *                                   bus with few SRAM banks
 *
 * --update-goldens first runs every selected scenario on both
 * execution backends (interp, compiled) and refuses to write anything
 * if they disagree, so a regressed backend can never become the
 * recorded truth.
 *
 * Usage:
 *   golden_runner                          check every scenario
 *   golden_runner --scenario NAME          check one scenario
 *   golden_runner --update-goldens [NAME]  rewrite golden file(s)
 *   golden_runner --list                   print scenario names
 *
 * A check also fails when the run leaves an event pending
 * (Simulator::pendingEvents): every scenario must drain.
 *
 * Golden files are plain text so drift shows up readably in git diffs.
 * Wall-clock time is deliberately excluded; everything recorded is a
 * deterministic function of the module and the engine.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "aie/fir.hh"
#include "ir/builder.hh"
#include "passes/pipeline.hh"
#include "scalesim/scalesim.hh"
#include "sim/engine.hh"
#include "soc/soc.hh"
#include "systolic/generator.hh"

#ifndef EQSIM_GOLDEN_DIR
#error "EQSIM_GOLDEN_DIR must point at the checked-in goldens"
#endif

namespace {

using namespace eq;

/** How many normalized trace lines are inlined into the golden for
 *  human diagnosis; the full stream is pinned by count + hash. */
constexpr size_t kTraceHeadLines = 64;

struct Scenario {
    std::string name;
    std::string description;
    std::function<sim::SimReport(sim::Simulator &, std::string *err)> run;
};

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

uint64_t
fnv1aLine(uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    // Fold in a separator so line concatenations can't collide.
    h ^= 0x0a;
    h *= 0x100000001b3ull;
    return h;
}

/** Render one run as the canonical golden text. */
std::string
renderGolden(const std::string &name, const sim::SimReport &rep,
             const sim::Trace &trace)
{
    std::ostringstream os;
    os << "# golden " << name << "\n";
    os << "# regenerate: golden_runner --update-goldens " << name << "\n";
    os << "cycles " << rep.cycles << "\n";
    os << "events_executed " << rep.eventsExecuted << "\n";
    os << "ops_executed " << rep.opsExecuted << "\n";

    for (const auto &c : rep.connections) {
        os << "conn " << c.name << " kind=" << c.kind
           << " limit=" << c.bandwidthLimit << " read=" << c.readBytes
           << " write=" << c.writeBytes
           << " avg_read_bw=" << fmt(c.avgReadBw)
           << " avg_write_bw=" << fmt(c.avgWriteBw)
           << " max_bw=" << fmt(c.maxBw)
           << " max_portion_read=" << fmt(c.maxBwPortionRead)
           << " max_portion_write=" << fmt(c.maxBwPortionWrite) << "\n";
    }
    for (const auto &m : rep.memories) {
        os << "mem " << m.name << " kind=" << m.kind
           << " read=" << m.bytesRead << " written=" << m.bytesWritten
           << " avg_read_bw=" << fmt(m.avgReadBw)
           << " avg_write_bw=" << fmt(m.avgWriteBw) << "\n";
    }
    for (const auto &p : rep.processors) {
        os << "proc " << p.name << " kind=" << p.kind
           << " busy=" << p.busyCycles << " ops=" << p.opsExecuted
           << " util=" << fmt(p.utilization) << "\n";
    }

    // Normalize the trace: the engine is deterministic, but pin a
    // canonical order anyway so incidental reordering of simultaneous
    // events never masquerades as (or hides) real drift.
    std::vector<std::string> lines;
    lines.reserve(trace.events().size());
    for (const auto &ev : trace.events()) {
        std::ostringstream l;
        l << ev.ts << " " << ev.dur << " " << ev.pid << " " << ev.tid
          << " " << ev.name;
        lines.push_back(l.str());
    }
    std::vector<std::pair<uint64_t, std::string>> keyed;
    keyed.reserve(lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        keyed.emplace_back(trace.events()[i].ts, std::move(lines[i]));
    std::sort(keyed.begin(), keyed.end());
    lines.clear();
    for (auto &kv : keyed)
        lines.push_back(std::move(kv.second));
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &l : lines)
        h = fnv1aLine(h, l);

    os << "trace_events " << lines.size() << "\n";
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    os << "trace_hash " << hex << "\n";
    size_t head = std::min(lines.size(), kTraceHeadLines);
    os << "trace_head " << head << "\n";
    for (size_t i = 0; i < head; ++i)
        os << "  " << lines[i] << "\n";
    return os.str();
}

sim::SimReport
runFir(sim::Simulator &s, const aie::FirConfig &cfg, std::string *err)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = aie::buildFirModule(ctx, cfg);
    std::string v = module->verify();
    if (!v.empty()) {
        *err = "FIR module failed verification: " + v;
        return {};
    }
    return s.simulate(module.get());
}

sim::SimReport
simulateSystolicPipeline(sim::Simulator &s, const scalesim::Config &cfg,
                         std::string *err)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    // Full pipeline: Linalg input module lowered through all four
    // stages (Section VI-D) — the path this harness pins down.
    auto module = passes::buildConvModule(ctx, cfg);
    std::string diag =
        passes::lowerConvModule(module.get(), passes::Stage::Systolic, cfg);
    if (!diag.empty()) {
        *err = "lowering failed: " + diag;
        return {};
    }
    std::string v = module->verify();
    if (!v.empty()) {
        *err = "lowered module failed verification: " + v;
        return {};
    }
    return s.simulate(module.get());
}

sim::SimReport
runSoc(sim::Simulator &s, const soc::SocConfig &cfg, std::string *err)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildSocModule(ctx, cfg);
    std::string v = module->verify();
    if (!v.empty()) {
        *err = "SoC module failed verification: " + v;
        return {};
    }
    return s.simulate(module.get());
}

sim::SimReport
runSocPipeline(sim::Simulator &s, const soc::PipelineConfig &cfg,
               std::string *err)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildPipelineModule(ctx, cfg);
    std::string v = module->verify();
    if (!v.empty()) {
        *err = "pipeline module failed verification: " + v;
        return {};
    }
    return s.simulate(module.get());
}

scalesim::Config
convConfig(int array, scalesim::Dataflow df)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = array;
    cfg.dataflow = df;
    cfg.c = 2;
    cfg.h = cfg.w = 8;
    cfg.n = 8;
    cfg.fh = cfg.fw = 3;
    cfg.elemBytes = 4;
    return cfg;
}

std::vector<Scenario>
allScenarios()
{
    std::vector<Scenario> v;
    v.push_back({"fir_aie_case3",
                 "16 pipelined AIE cores, 32-bit stream links",
                 [](sim::Simulator &s, std::string *err) {
                     return runFir(s, aie::FirConfig::case3(), err);
                 }});
    v.push_back({"fir_aie_case4",
                 "4 balanced AIE cores, 32-bit stream links",
                 [](sim::Simulator &s, std::string *err) {
                     return runFir(s, aie::FirConfig::case4(), err);
                 }});
    struct Grid {
        int array;
        scalesim::Dataflow df;
        const char *suffix;
    };
    const Grid grids[] = {
        {4, scalesim::Dataflow::WS, "4x4_ws"},
        {4, scalesim::Dataflow::OS, "4x4_os"},
        {8, scalesim::Dataflow::WS, "8x8_ws"},
        {8, scalesim::Dataflow::OS, "8x8_os"},
    };
    for (const Grid &g : grids) {
        scalesim::Config cfg = convConfig(g.array, g.df);
        v.push_back({std::string("systolic_") + g.suffix,
                     "conv lowered Linalg->Systolic, " +
                         scalesim::dataflowName(g.df) + " dataflow",
                     [cfg](sim::Simulator &s, std::string *err) {
                         return simulateSystolicPipeline(s, cfg, err);
                     }});
    }
    v.push_back({"soc_dual_shared_bus",
                 "two WS systolic tiles behind one shared bus/DMA",
                 [](sim::Simulator &s, std::string *err) {
                     return runSoc(s, soc::SocConfig::dualSharedBus(),
                                   err);
                 }});
    v.push_back({"soc_pipeline_buffered",
                 "layer pipeline chained through on-chip buffers",
                 [](sim::Simulator &s, std::string *err) {
                     return runSocPipeline(
                         s, soc::PipelineConfig::small(), err);
                 }});
    v.push_back({"soc_hetero_starved",
                 "WS+OS mix behind a narrow Window bus, 2 SRAM banks",
                 [](sim::Simulator &s, std::string *err) {
                     return runSoc(s, soc::SocConfig::heteroStarved(),
                                   err);
                 }});
    return v;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(EQSIM_GOLDEN_DIR) + "/" + name + ".golden";
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Print the first divergence between expected and actual so CTest logs
 *  identify the drift without a local repro. */
void
printDiff(const std::string &expect, const std::string &actual)
{
    std::istringstream ei(expect), ai(actual);
    std::string el, al;
    int lineno = 0;
    while (true) {
        bool eok = static_cast<bool>(std::getline(ei, el));
        bool aok = static_cast<bool>(std::getline(ai, al));
        ++lineno;
        if (!eok && !aok)
            return;
        if (eok && aok && el == al)
            continue;
        std::fprintf(stderr, "  first divergence at line %d:\n", lineno);
        std::fprintf(stderr, "    golden: %s\n",
                     eok ? el.c_str() : "<end of file>");
        std::fprintf(stderr, "    actual: %s\n",
                     aok ? al.c_str() : "<end of file>");
        return;
    }
}

/** Render a scenario's golden text under one explicit backend. */
bool
renderForMode(const Scenario &sc, sim::Backend backend, std::string *text,
              std::string *err)
{
    sim::EngineOptions opts;
    opts.enableTrace = true;
    opts.backend = backend;
    sim::Simulator s(opts);
    sim::SimReport rep = sc.run(s, err);
    if (!err->empty())
        return false;
    *text = renderGolden(sc.name, rep, s.trace());
    return true;
}

/**
 * Rewrite a golden, but only after the full backend matrix agrees: a
 * regressed backend must fail loudly here rather than silently become
 * the recorded truth.
 */
int
updateScenario(const Scenario &sc, const std::string &path)
{
    struct ModeSpec {
        const char *label;
        sim::Backend backend;
    };
    const ModeSpec modes[] = {
        {"interp", sim::Backend::Interp},
        {"compiled", sim::Backend::Compiled},
    };
    constexpr int kModes = 2;
    std::string texts[kModes];
    for (int i = 0; i < kModes; ++i) {
        std::string err;
        if (!renderForMode(sc, modes[i].backend, &texts[i], &err)) {
            std::fprintf(stderr,
                         "[%s] FAILED to produce a report (%s): %s\n",
                         sc.name.c_str(), modes[i].label, err.c_str());
            return 1;
        }
    }
    for (int i = 1; i < kModes; ++i) {
        if (texts[i] == texts[0])
            continue;
        std::fprintf(stderr,
                     "[%s] REFUSING to update: %s disagrees with %s\n"
                     "  fix the backend divergence first "
                     "(tests/sim/test_backend_equiv.cc)\n",
                     sc.name.c_str(), modes[i].label, modes[0].label);
        printDiff(texts[0], texts[i]);
        return 1;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "[%s] cannot write %s\n", sc.name.c_str(),
                     path.c_str());
        return 1;
    }
    out << texts[0];
    std::printf("[%s] golden updated, 2-backend matrix agreed (%s)\n",
                sc.name.c_str(), path.c_str());
    return 0;
}

int
runScenario(const Scenario &sc, bool update)
{
    const std::string path = goldenPath(sc.name);
    if (update)
        return updateScenario(sc, path);

    sim::EngineOptions opts;
    opts.enableTrace = true;
    sim::Simulator s(opts);
    std::string err;
    sim::SimReport rep = sc.run(s, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "[%s] FAILED to produce a report: %s\n",
                     sc.name.c_str(), err.c_str());
        return 1;
    }
    // Every scenario drains: an event left pending means part of the
    // modeled work blocked forever.
    if (s.pendingEvents() != 0) {
        std::fprintf(stderr, "[%s] %zu events never completed\n",
                     sc.name.c_str(), s.pendingEvents());
        return 1;
    }
    std::string actual = renderGolden(sc.name, rep, s.trace());

    std::string expect;
    if (!readFile(path, &expect)) {
        std::fprintf(stderr,
                     "[%s] missing golden file %s\n"
                     "  generate it with: golden_runner --update-goldens "
                     "%s\n",
                     sc.name.c_str(), path.c_str(), sc.name.c_str());
        return 1;
    }
    if (expect != actual) {
        std::fprintf(stderr,
                     "[%s] DRIFT versus %s\n"
                     "  if the change is intentional, regenerate with: "
                     "golden_runner --update-goldens %s\n",
                     sc.name.c_str(), path.c_str(), sc.name.c_str());
        printDiff(expect, actual);
        return 1;
    }
    std::printf("[%s] OK (cycles=%llu, trace_events=%zu)\n",
                sc.name.c_str(),
                static_cast<unsigned long long>(rep.cycles),
                s.trace().events().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool update = false;
    bool list = false;
    std::vector<std::string> selected;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--update-goldens") {
            update = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--scenario") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--scenario requires a name\n");
                return 2;
            }
            selected.push_back(argv[++i]);
        } else if (!arg.empty() && arg[0] != '-') {
            selected.push_back(arg);
        } else {
            std::fprintf(stderr,
                         "usage: golden_runner [--list] [--update-goldens] "
                         "[--scenario NAME]...\n");
            return 2;
        }
    }

    auto scenarios = allScenarios();
    if (list) {
        for (const auto &sc : scenarios)
            std::printf("%-18s %s\n", sc.name.c_str(),
                        sc.description.c_str());
        return 0;
    }

    // Validate the whole selection up front so a typo can never leave
    // partial side effects (e.g. some goldens rewritten, then an error).
    for (const auto &name : selected) {
        bool known = std::any_of(
            scenarios.begin(), scenarios.end(),
            [&](const Scenario &sc) { return sc.name == name; });
        if (!known) {
            std::fprintf(stderr, "unknown scenario '%s' (see --list)\n",
                         name.c_str());
            return 2;
        }
    }

    int failures = 0;
    for (const auto &sc : scenarios) {
        if (!selected.empty() &&
            std::find(selected.begin(), selected.end(), sc.name) ==
                selected.end())
            continue;
        failures += runScenario(sc, update) ? 1 : 0;
    }
    return failures ? 1 : 0;
}
