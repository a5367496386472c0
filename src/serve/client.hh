/**
 * @file
 * Client: a small typed wrapper over the daemon's NDJSON protocol.
 *
 * One Client is one TCP connection. Requests are synchronous —
 * simulate() and stats() write a line and block for the matching
 * response; sweepTable() streams row lines as they finish on the
 * server and re-merges them by dense point index, so the returned
 * table is byte-identical (csv()) to runLocalSweep() for the same
 * spec, at any server worker count. Not thread-safe: use one Client
 * per thread (each opens its own connection, which is also what gives
 * the server's per-client fairness its meaning).
 *
 * Retry/backoff: with a RetryPolicy installed (maxAttempts > 1) the
 * typed requests retry transparently on transport failures (connect
 * refused, connection dropped or torn mid-response) and on structured
 * errors the taxonomy marks retryable (backpressure, build_failed,
 * internal), sleeping an exponentially growing, deterministically
 * jittered delay between attempts — and at least the server's
 * retry_after_ms hint when one is present. Retrying verbatim is safe
 * by construction: served results are byte-deterministic, so a
 * repeated simulate/sweep is idempotent. A failed sweep always closes
 * its connection (stale rows of the aborted stream could otherwise be
 * read as the answers to the retry or to the next request).
 * simulate(), sweepTable() and stats() each hand one attempt to the
 * same retry loop (withRetries); shutdownServer() and roundTrip()
 * never retry.
 */

#ifndef EQ_SERVE_CLIENT_HH
#define EQ_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/models.hh"
#include "serve/protocol.hh"
#include "sweep/table.hh"

namespace eq {
namespace serve {

/** Bounded-retry knobs. maxAttempts counts every try including the
 *  first; 1 disables retrying. Delays are deterministic for a given
 *  seed (jitter comes from a seeded xorshift, not wall clock). */
struct RetryPolicy {
    int maxAttempts = 1;
    int baseDelayMs = 10;
    int maxDelayMs = 1000;
    uint64_t seed = 1;
};

/** Parse "host:port" (port 1..65535). False on anything else. */
bool parseHostPort(const std::string &text, std::string *host,
                   uint16_t *port);

class Client {
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to @p host:@p port. False (with @p err) on failure.
     *  The address is remembered for retry reconnects. */
    bool connect(const std::string &host, uint16_t port,
                 std::string *err = nullptr);
    bool connected() const { return _fd >= 0; }
    void close();

    void setRetryPolicy(const RetryPolicy &policy) { _policy = policy; }
    const RetryPolicy &retryPolicy() const { return _policy; }
    /** Retries performed (sleeps taken) over this client's lifetime. */
    uint64_t retriesPerformed() const { return _retries; }

    struct SimulateResult {
        bool ok = false;
        ErrorCode code = ErrorCode::Ok; ///< failure code when !ok
        std::string error;                ///< message when !ok
        bool cached = false; ///< program was warm in the server cache
        Json report;         ///< reportToJson shape
    };

    /** Simulate one configuration (round-trips ModelKey as JSON).
     *  @p deadline_ms < 0 sends no deadline. */
    SimulateResult simulate(const ModelKey &key,
                            int64_t deadline_ms = -1);

    /** Run @p spec on the server and re-merge the streamed rows (by
     *  dense point index) into a table with spec.schema(). False on
     *  protocol or server error, with @p failure holding the server's
     *  structured error, or io_error for a transport failure. */
    bool sweepTable(const SweepSpec &spec, sweep::Table *out,
                    ErrorInfo *failure = nullptr,
                    int64_t deadline_ms = -1);

    /** Server/cache/scheduler counters. False on error. */
    bool stats(Json *out, std::string *err = nullptr);

    /** Ask the server to shut down (acknowledged with "bye"). */
    bool shutdownServer(std::string *err = nullptr);

    /** Send one raw request line and read one raw response line —
     *  protocol-level escape hatch (used by the smoke script's
     *  scripted checks and the protocol tests). Never retries. */
    bool roundTrip(const Json &request, Json *response,
                   std::string *err = nullptr);

  private:
    /** One try of a request on a connected client. True on success;
     *  otherwise fills @p failure: the server's structured error, or
     *  io_error and a message for a transport-class failure. */
    using Attempt = std::function<bool(ErrorInfo *failure)>;

    bool sendRequest(const Json &request, std::string *err);
    bool readResponse(Json *response, std::string *err);
    /** roundTrip(), then turn an "ok":false answer into its
     *  ErrorInfo. */
    bool call(const Json &request, Json *response, ErrorInfo *failure);
    bool reconnect(std::string *err);
    /** Sleep before attempt @p attempt (1-based retry count), honoring
     *  @p retry_after_ms when the server sent a hint. */
    void backoff(int attempt, int64_t retry_after_ms);
    /** The retry loop: (re)connect and run @p attempt until it
     *  succeeds, fails with a non-retryable code, or the policy's
     *  attempts run out; @p failure holds the last failure. A transport
     *  failure closes the connection; @p close_on_failure closes it
     *  after every failed attempt. */
    bool withRetries(const Attempt &attempt, ErrorInfo *failure,
                     bool close_on_failure = false);
    bool sweepTableOnce(const SweepSpec &spec, sweep::Table *out,
                        int64_t deadline_ms, ErrorInfo *failure);

    int _fd = -1;
    uint64_t _nextId = 1;
    std::unique_ptr<LineReader> _reader;
    std::string _host;
    uint16_t _port = 0;
    RetryPolicy _policy;
    uint64_t _rng = 0;
    uint64_t _retries = 0;
};

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_CLIENT_HH
