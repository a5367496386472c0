/**
 * @file
 * The serve-mixed load generator: one thread driving a fixed set of
 * connections through poll(), as an open loop (requests sent at their
 * due times whether or not earlier ones have answered) or a closed loop
 * (each connection sends its next request when the previous answers).
 *
 * Open-loop latency is timed from each request's due time, not from
 * when it was sent, so a generator stall counts against every request
 * it delayed; the generator also reports how late it sent.
 *
 * The wire sits behind Transport so the self-test can drive the same
 * loops over a scripted in-memory server.
 */

#ifndef EQ_PERFBENCH_LOADGEN_HH
#define EQ_PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "support.hh"

namespace eq {
namespace perfbench {

/** One response line, matched to its request by "id". */
struct Reply {
    uint64_t id = 0;
    serve::Json response;
    Clock::time_point at;
};

class Transport {
  public:
    virtual ~Transport() = default;
    virtual unsigned connections() const = 0;
    /** Send one request line on connection @p conn. */
    virtual bool send(unsigned conn, const std::string &line) = 0;
    /** Wait until @p deadline for responses and append what arrived;
     *  returns as soon as at least one is in. False when the transport
     *  failed. */
    virtual bool poll(Clock::time_point deadline,
                      std::vector<Reply> *out) = 0;
};

/** Loopback TCP connections to one eqserved. */
class TcpTransport : public Transport {
  public:
    TcpTransport() = default;
    ~TcpTransport() override;
    TcpTransport(const TcpTransport &) = delete;
    TcpTransport &operator=(const TcpTransport &) = delete;

    bool connect(uint16_t port, unsigned count, std::string *err);
    unsigned connections() const override { return unsigned(_fds.size()); }
    bool send(unsigned conn, const std::string &line) override;
    bool poll(Clock::time_point deadline, std::vector<Reply> *out) override;

  private:
    std::vector<int> _fds;
    std::vector<std::string> _bufs;
};

/** What happened to one request. */
struct Outcome {
    uint32_t request = 0;  ///< index into the request stream
    bool answered = false;
    bool ok = false;
    bool cached = false;
    double lateMs = 0.0;    ///< sent - due (open loop)
    double latencyMs = 0.0; ///< done - due (open) or done - sent (closed)
    double rttMs = 0.0;     ///< done - sent
    double execMs = 0.0;    ///< the response's wall_s
    Clock::time_point sentAt, doneAt;
    serve::Json response;
};

/** Builds the request line for stream index @p i with wire id @p id. */
using LineFn = std::function<std::string(uint32_t i, uint64_t id)>;

/**
 * Open loop: request i (i < due.size()) is due at @p start + due[i] and
 * goes out on connection i % connections(). Waits up to @p drain_s
 * after the last send for outstanding answers. @p before_send (test
 * seam) runs just before each send.
 */
std::vector<Outcome> runOpenLoop(Transport &t, const std::vector<double> &due,
                                 const LineFn &line, Clock::time_point start,
                                 double drain_s,
                                 const std::function<void(uint32_t)>
                                     &before_send = {});

/** Closed loop from stream index @p first: @p window requests in
 *  flight per connection, each answer sending the next, for @p seconds
 *  (or exactly @p max_requests when nonzero); then drains. Indices wrap
 *  at @p count. */
std::vector<Outcome> runClosedLoop(Transport &t, uint32_t first,
                                   uint32_t count, const LineFn &line,
                                   unsigned window, double seconds,
                                   size_t max_requests, double drain_s,
                                   double *elapsed_s);

} // namespace perfbench
} // namespace eq

#endif // EQ_PERFBENCH_LOADGEN_HH
