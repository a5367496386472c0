/**
 * @file
 * Profiling summary produced by a simulation run (§IV-B): simulated
 * runtime, wall-clock execution time, per-connection read/write bandwidth
 * with max-bandwidth portion, per-memory byte totals, and per-processor
 * utilization.
 */

#ifndef EQ_SIM_REPORT_HH
#define EQ_SIM_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace eq {
namespace sim {

/** Per-connection bandwidth statistics. */
struct ConnReport {
    std::string name;
    std::string kind;          ///< Streaming / Window
    int64_t bandwidthLimit;    ///< bytes/cycle, 0 = unlimited
    int64_t readBytes = 0;
    int64_t writeBytes = 0;
    double avgReadBw = 0.0;    ///< bytes/cycle over the whole run
    double avgWriteBw = 0.0;
    double maxBw = 0.0;        ///< peak observed bytes/cycle
    /** Fraction of simulated time spent at the channel's peak
     *  bandwidth (the paper's "max bandwidth portion"). */
    double maxBwPortionRead = 0.0;
    double maxBwPortionWrite = 0.0;
};

/** Per-memory byte totals and average bandwidth. */
struct MemReport {
    std::string name;
    std::string kind;
    int64_t bytesRead = 0;
    int64_t bytesWritten = 0;
    double avgReadBw = 0.0;
    double avgWriteBw = 0.0;
};

/** Per-processor utilization. */
struct ProcReport {
    std::string name;
    std::string kind;
    uint64_t busyCycles = 0;
    uint64_t opsExecuted = 0;
    double utilization = 0.0;
};

/** The full profiling summary for one simulation. */
struct SimReport {
    uint64_t cycles = 0;        ///< simulated runtime in cycles
    double wallSeconds = 0.0;   ///< simulator execution time
    uint64_t eventsExecuted = 0;
    uint64_t opsExecuted = 0;
    /** Counted dispatches of the execution loop. Equals opsExecuted on
     *  the interpreter; drops below it on the compiled backend, where
     *  superinstruction fusion collapses several ops into one dispatch
     *  (print() shows it only when the two differ). Backend-dependent
     *  by design — every other field is backend-invariant. */
    uint64_t dispatchCount = 0;
    std::vector<ConnReport> connections;
    std::vector<MemReport> memories;
    std::vector<ProcReport> processors;

    const MemReport *findMem(const std::string &name) const;
    const ConnReport *findConn(const std::string &name) const;

    /** Pretty-print the summary table. */
    void print(std::ostream &os) const;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_REPORT_HH
