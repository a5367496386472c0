/**
 * @file
 * Multi-accelerator SoC scenario generators.
 *
 * Composes the existing component library into systems bigger than one
 * accelerator: several systolic arrays sharing one bus/DMA complex with
 * real contention, and GEMM-style layer pipelines chained through
 * on-chip buffers. Every family is a parameterized generator whose
 * config is value-comparable and hashable (mirroring scalesim::Config)
 * so sweep harnesses and worker caches can key on it.
 *
 * Families:
 *   buildSocModule       N systolic tiles (WS/OS mix) behind one shared
 *                        bus + DMA pool + shared SRAM. Boundary reads
 *                        and result writes travel over the shared bus
 *                        connection, staging memcpys ride the DMA pool,
 *                        per-tile links carry preload/drain traffic.
 *                        The tiles' PEs are the systolic generator's
 *                        (systolic/pe.hh); only their sources,
 *                        destinations and connections differ.
 *   buildPipelineModule  a chain of compute stages double-ended by
 *                        in/out DMAs, items flowing through per-stage
 *                        on-chip buffers with structural hazards
 *                        (stage s of item t waits for stage s+1 of
 *                        item t-1 to free the buffer).
 *
 * The SoC bodies deliberately lean on connection-carrying reads/writes
 * — the records the superinstruction fuser skips — so these scenarios
 * double as the profile workload for the ROADMAP's follow-on fusion
 * work.
 *
 * expectedSocTraffic / expectedPipelineTraffic give closed-form byte
 * counts for every connection so property tests can assert exact byte
 * conservation instead of loose bounds.
 */

#ifndef EQ_SOC_SOC_HH
#define EQ_SOC_SOC_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/fields.hh"
#include "ir/builder.hh"
#include "scalesim/scalesim.hh"

namespace eq {
namespace soc {

/** One systolic tile on the shared bus. */
struct TileSpec {
    int ah = 2;           ///< array rows
    int aw = 2;           ///< array cols
    scalesim::Dataflow dataflow = scalesim::Dataflow::WS;
    int64_t linkBytesPerCycle = 8; ///< private link (preload/drain)

    /** Wire names and accepted ranges, in declaration order. */
    static constexpr auto
    fields()
    {
        return std::make_tuple(
            intField("ah", &TileSpec::ah, 1),
            intField("aw", &TileSpec::aw, 1),
            enumField("df", &TileSpec::dataflow, scalesim::kDataflowNames),
            // As for every *_bw field: 0 means unlimited, and the
            // verifier rejects negative bandwidths.
            intField("link_bw", &TileSpec::linkBytesPerCycle, 0));
    }

    bool operator==(const TileSpec &o) const { return fieldsEqual(*this, o); }
    bool operator!=(const TileSpec &o) const { return !(*this == o); }
};

/** Wire names of the shared-bus connection kinds. */
constexpr std::array<const char *, 2> kBusKinds = {"Streaming", "Window"};

/** Shared-bus multi-accelerator SoC configuration. */
struct SocConfig {
    std::vector<TileSpec> accels = {TileSpec{}, TileSpec{}};
    int64_t busBytesPerCycle = 8; ///< shared bus bandwidth
    std::string busKind = "Streaming"; ///< "Streaming" or "Window"
    unsigned sramBanks = 4;       ///< shared SRAM bank count
    int dmaEngines = 1;           ///< DMA pool size (FIFO per engine)
    int rounds = 2;               ///< outer rounds (stage + compute)
    int steps = 4;                ///< systolic steps per round
    int64_t elemBytes = 4;

    /** Wire names and accepted ranges, in declaration order. */
    static constexpr auto
    fields()
    {
        return std::make_tuple(
            listField("accels", &SocConfig::accels, "accel", 1),
            intField("bus_bw", &SocConfig::busBytesPerCycle, 0),
            enumField("bus_kind", &SocConfig::busKind, kBusKinds),
            intField("sram_banks", &SocConfig::sramBanks, 1),
            intField("dmas", &SocConfig::dmaEngines, 1),
            intField("rounds", &SocConfig::rounds, 0),
            intField("steps", &SocConfig::steps, 0),
            intField("elem_bytes", &SocConfig::elemBytes, 0));
    }

    bool operator==(const SocConfig &o) const { return fieldsEqual(*this, o); }
    bool operator!=(const SocConfig &o) const { return !(*this == o); }

    /** FNV-1a over every field; stable across runs for cache keying. */
    uint64_t hash() const { return fieldsHash(*this); }

    /** Two identical WS tiles contending for one bus + one DMA. */
    static SocConfig dualSharedBus();
    /** WS + OS mix behind a narrow Window bus, few banks, one DMA. */
    static SocConfig heteroStarved();
};

/** Buffered layer-pipeline configuration. */
struct PipelineConfig {
    int stages = 4;          ///< compute stages in the chain
    int batches = 6;         ///< items pushed through the pipeline
    int64_t tileElems = 16;  ///< elements per item tile
    int computePerElem = 2;  ///< chained MACs per element per stage
    int64_t dmaBytesPerCycle = 8; ///< in/out DMA connection bandwidth
    int64_t hopBytesPerCycle = 4; ///< stage-to-stage hop bandwidth
    int64_t elemBytes = 4;

    /** Wire names and accepted ranges, in declaration order. */
    static constexpr auto
    fields()
    {
        return std::make_tuple(
            intField("stages", &PipelineConfig::stages, 1),
            intField("batches", &PipelineConfig::batches, 1),
            intField("tile_elems", &PipelineConfig::tileElems, 0),
            intField("compute", &PipelineConfig::computePerElem, 0),
            intField("dma_bw", &PipelineConfig::dmaBytesPerCycle, 0),
            intField("hop_bw", &PipelineConfig::hopBytesPerCycle, 0),
            intField("elem_bytes", &PipelineConfig::elemBytes, 0));
    }

    bool operator==(const PipelineConfig &o) const
    {
        return fieldsEqual(*this, o);
    }
    bool operator!=(const PipelineConfig &o) const
    {
        return !(*this == o);
    }

    uint64_t hash() const { return fieldsHash(*this); }

    static PipelineConfig small();
};

/** Exact per-connection byte counts for a SocConfig run. */
struct SocTraffic {
    int64_t busReadBytes = 0;
    int64_t busWriteBytes = 0;
    /** Per-accelerator private-link traffic, index-aligned with
     *  SocConfig::accels. WS tiles read preloads; OS tiles write
     *  drained accumulators. */
    std::vector<int64_t> linkReadBytes;
    std::vector<int64_t> linkWriteBytes;
};

/** Exact per-connection byte counts for a PipelineConfig run. */
struct PipelineTraffic {
    int64_t inBytes = 0;  ///< DMA-in connection write bytes
    int64_t outBytes = 0; ///< DMA-out connection write bytes
    int64_t hopBytes = 0; ///< each stage hop connection write bytes
};

SocTraffic expectedSocTraffic(const SocConfig &cfg);
PipelineTraffic expectedPipelineTraffic(const PipelineConfig &cfg);

ir::OwningOpRef buildSocModule(ir::Context &ctx, const SocConfig &cfg);
ir::OwningOpRef buildPipelineModule(ir::Context &ctx,
                                    const PipelineConfig &cfg);

} // namespace soc
} // namespace eq

#endif // EQ_SOC_SOC_HH
