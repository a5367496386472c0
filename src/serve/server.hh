/**
 * @file
 * Server: the long-lived simulation service (the ROADMAP's
 * "simulation-as-a-service daemon" — eqserved is a thin main()
 * around this class; tests run it in-process on an ephemeral port).
 *
 * One accept loop, one reader thread per connection, one shared
 * Scheduler worker pool, one shared ProgramCache. Request handling:
 *
 *  - simulate: scheduled (non-blocking submit — a full queue answers
 *    with a structured backpressure error carrying a retry_after_ms
 *    hint), runs through the cache, and answers with the full report
 *    plus whether the program was warm.
 *  - sweep: points expand on the reader thread (blocking submits, so
 *    a huge grid stalls only its own client), each point streams one
 *    row line in completion order tagged with its dense index, and a
 *    sweep_end line follows the last row. Rows re-merged by index
 *    reproduce runLocalSweep's table byte-identically at any worker
 *    count and in every backend mode.
 *  - stats: cache + scheduler + server counters, answered inline.
 *  - shutdown: acknowledged, then the server stops accepting and
 *    wait() returns after in-flight work drains.
 *
 * Operational hardening (see the README's "Operational hardening"):
 *
 *  - Every failure answers with the structured ErrorCode taxonomy,
 *    never free text.
 *  - Requests may carry "deadline_ms"; queue entries that outlive it
 *    are dropped by the workers with a deadline_exceeded error
 *    instead of being simulated.
 *  - When a client disconnects, its reader marks the connection gone
 *    and every still-queued point is cancelled — workers stop burning
 *    cycles for a dead socket.
 *  - Request lines are capped (maxLineBytes / eqserved --max-line,
 *    default 8 MiB); an endless line answers frame_too_large instead
 *    of growing the daemon's memory without bound.
 *  - The FaultInjector seams (torn writes, dropped connections,
 *    worker faults, stalls, build failures) live in Conn::send and
 *    runTask; they are no-ops unless a fault plan is active.
 *
 * Simulate requests and sweep points run through one worker job
 * (runTask): it owns the deadline and cancellation outcomes, the fault
 * seams, the cache run and the exception-to-ErrorCode mapping, and
 * hands the result to the request kind's responder, which only frames
 * it (a "report" line, or a "row"/error line tagged with its index).
 *
 * Responses for one connection are serialized by a per-connection
 * write mutex, so concurrently finishing sweep rows never interleave
 * bytes on the wire.
 */

#ifndef EQ_SERVE_SERVER_HH
#define EQ_SERVE_SERVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/cache.hh"
#include "serve/models.hh"
#include "serve/scheduler.hh"
#include "sim/engine.hh"

namespace eq {
namespace serve {

struct ServerOptions {
    std::string host = "127.0.0.1";
    uint16_t port = 0;     ///< 0 = ephemeral (read back via port())
    size_t cacheEntries = 0; ///< 0 = ProgramCache::defaultEntries()
    unsigned workers = 0;  ///< scheduler pool; 0 = hardware concurrency
    size_t maxQueuedPerClient = 256; ///< backpressure cap
    size_t maxQueuedTotal = 0; ///< pool-wide shed cap; 0 = unlimited
    size_t maxLineBytes = 0; ///< request-line cap; 0 = 8 MiB
    sim::EngineOptions engine;       ///< backend for every entry
};

class Server {
  public:
    using Clock = Scheduler::Clock;

    explicit Server(ServerOptions opts = {});
    ~Server(); ///< shuts down and joins everything

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + spawn the accept loop. False (with @p err) on
     *  bind failure. */
    bool start(std::string *err = nullptr);

    /** The bound port (valid after start()). */
    uint16_t port() const { return _port; }

    /** Block until shutdown() — typically a client's shutdown
     *  request — then drain queued work and join all threads. */
    void wait();

    /** Request shutdown (idempotent, callable from any thread). */
    void shutdown();

    ProgramCache &cache() { return *_cache; }
    Scheduler &scheduler() { return *_scheduler; }

    /** The resolved request-line byte cap. */
    size_t maxLineBytes() const { return _maxLine; }

  private:
    struct Conn;
    struct RunResult;
    /** Frames and sends one run's answer; handed nullptr when the run
     *  was cancelled (nobody is left to answer). */
    using Responder = std::function<void(const RunResult *)>;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);
    /** Each handler answers with the request's @p id (null when the
     *  request carries none). */
    void handleSimulate(const std::shared_ptr<Conn> &conn, const Json &id,
                        const Json &request, Clock::time_point deadline);
    void handleSweep(const std::shared_ptr<Conn> &conn, const Json &id,
                     const Json &request, Clock::time_point deadline);
    void handleStats(const std::shared_ptr<Conn> &conn, const Json &id);

    /** The one worker job behind simulate and sweep: run @p key for
     *  @p conn (cancelled when the connection goes) and hand the
     *  outcome to @p respond exactly once. */
    Scheduler::Task runTask(const std::shared_ptr<Conn> &conn,
                            ModelKey key, Clock::time_point deadline,
                            Responder respond);

    /** The retry_after_ms backpressure hint: how long, at the current
     *  queue depth, a shed client should wait before trying again. */
    int64_t retryAfterMs() const;

    ServerOptions _opts;
    uint16_t _port = 0;
    int _listenFd = -1;
    size_t _maxLine = 0;
    std::unique_ptr<ProgramCache> _cache;
    std::unique_ptr<Scheduler> _scheduler;

    struct State;
    std::unique_ptr<State> _state;
};

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_SERVER_HH
