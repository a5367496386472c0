/**
 * @file
 * FaultInjector: the serving layer's deterministic chaos seam.
 *
 * Every hard-to-reach failure branch in the daemon — torn response
 * writes, mid-line connection drops, worker-side exceptions, slow
 * requests, forced ProgramCache build failures — is guarded by one of
 * the static decision points below. With no plan configured they are
 * single relaxed-atomic-load no-ops, so the fast path pays nothing;
 * with a plan (eqserved --faults <spec>:<seed>)
 * every decision is drawn from a seeded SplitMix64 stream, so a chaos
 * run is reproducible for a given seed and serial request order.
 *
 * Spec grammar (comma-separated, probabilities in [0,1]):
 *   torn=P      write half a response line, then drop the connection
 *   drop=P      drop the connection instead of writing a response
 *   werr=P      throw inside the worker job (error.code "internal")
 *   build=P     fail the ProgramCache build (error.code "build_failed")
 *   stall=P     sleep stall_ms before running a point
 *   stall_ms=N  stall duration (default 10 ms)
 *   max=N       total fault budget — after N injections the injector
 *               goes quiescent, which bounds how long a retrying
 *               client can be starved (default: unbounded)
 * followed by an optional ":<seed>" suffix (default seed 1), e.g.
 *   --faults torn=0.1,werr=0.25,build=0.2,max=16:7
 */

#ifndef EQ_SERVE_FAULTS_HH
#define EQ_SERVE_FAULTS_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace eq {
namespace serve {

class FaultInjector {
  public:
    /** What Conn::send should do with this response line. */
    enum class SendAction : uint8_t { None, Torn, Drop };

    struct Spec {
        double torn = 0.0;
        double drop = 0.0;
        double workerFault = 0.0;
        double buildFault = 0.0;
        double stall = 0.0;
        int stallMs = 10;
        uint64_t maxFaults = UINT64_MAX;
        uint64_t seed = 1;
    };

    struct Stats {
        uint64_t torn = 0;
        uint64_t drops = 0;
        uint64_t workerFaults = 0;
        uint64_t buildFaults = 0;
        uint64_t stalls = 0;
        uint64_t injected = 0; ///< total, against the max= budget
    };

    /** Parse the spec grammar above. False (with @p err) on bad text;
     *  @p out is only written on success. */
    static bool parseSpec(const std::string &text, Spec *out,
                          std::string *err);

    /** Install @p spec as the process-wide plan (replaces any). */
    static void configure(const Spec &spec);

    /** parseSpec + configure. */
    static bool configureFromText(const std::string &text,
                                  std::string *err);

    /** Remove the plan: every decision point becomes a no-op again. */
    static void disable();

    static bool enabled();
    static Stats stats(); ///< zeros when disabled

    /** One-line human summary of the active plan ("" when disabled). */
    static std::string describe();

    // -- decision points (no-ops when disabled) ---------------------
    static SendAction onSend();
    static bool workerFault();
    static bool buildFault();
    /** Milliseconds the caller should stall this request; 0 = none. */
    static int stallMs();

    /** RAII plan for tests: configures on construction, restores the
     *  disabled state on destruction. */
    struct Scoped {
        explicit Scoped(const Spec &spec) { configure(spec); }
        explicit Scoped(const std::string &text)
        {
            std::string err;
            if (!configureFromText(text, &err))
                disable();
        }
        ~Scoped() { disable(); }
        Scoped(const Scoped &) = delete;
        Scoped &operator=(const Scoped &) = delete;
    };
};

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_FAULTS_HH
