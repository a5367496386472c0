#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/faults.hh"

namespace eq {
namespace serve {

namespace {

using Clock = Scheduler::Clock;

constexpr const char *kDeadlineMsg =
    "deadline elapsed before the run started";

bool
deadlinePassed(Clock::time_point deadline)
{
    return deadline != Clock::time_point{} && Clock::now() > deadline;
}

} // namespace

/** One accepted connection. It owns its socket: the fd closes when
 *  the last shared_ptr drops — after the reader and every job queued
 *  for the client are done — so a worker can never write into an fd
 *  number the kernel has handed to a newer connection. Writes are
 *  serialized by `writeMu` so concurrently finishing jobs never
 *  interleave response bytes. The `gone` flag is both the liveness
 *  flag and the scheduler cancel token for everything this client
 *  queued: the reader flips it on EOF (and send() flips it on a dead
 *  socket), and workers then skip the client's pending points instead
 *  of simulating for nobody. */
struct Server::Conn {
    Conn(int fd_, uint64_t id_) : fd(fd_), id(id_) {}
    ~Conn() { ::close(fd); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    const int fd;
    const uint64_t id; ///< scheduler client id

    std::mutex writeMu;
    std::shared_ptr<std::atomic<bool>> gone =
        std::make_shared<std::atomic<bool>>(false);

    void markDead() { gone->store(true); }

    bool
    send(const Json &msg)
    {
        std::lock_guard<std::mutex> g(writeMu);
        if (gone->load())
            return false;
        const FaultInjector::SendAction fault = FaultInjector::onSend();
        if (fault == FaultInjector::SendAction::Torn) {
            // Write half the frame (no terminator) before the drop
            // below: the peer sees a truncated line followed by EOF.
            std::string frame = msg.dump();
            frame.resize(frame.size() / 2);
            (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        }
        if (fault != FaultInjector::SendAction::None) {
            ::shutdown(fd, SHUT_RDWR);
            markDead();
            return false;
        }
        if (!writeLine(fd, msg.dump())) {
            markDead();
            return false;
        }
        return true;
    }
};

struct Server::State {
    std::thread acceptThread;

    std::mutex mu;
    std::condition_variable stopCv;
    bool stopRequested = false;
    bool tornDown = false;
    uint64_t accepted = 0;
    /** Open connections and their reader threads, by client id. A
     *  reader that returns moves its thread to `finished` and drops its
     *  entry, so a closed connection holds no fd here. */
    std::map<uint64_t, std::pair<std::shared_ptr<Conn>, std::thread>>
        readers;
    std::vector<std::thread> finished; ///< joined by the accept loop
};

Server::Server(ServerOptions opts)
    : _opts(std::move(opts)), _state(std::make_unique<State>())
{
    _maxLine = _opts.maxLineBytes ? _opts.maxLineBytes
                                  : LineReader::kDefaultMaxLine;
    // Resolve Auto once, so every cache entry runs, and stats reports,
    // the same concrete backend.
    _opts.engine.backend = sim::resolveBackend(_opts.engine.backend);
    _cache = std::make_unique<ProgramCache>(_opts.cacheEntries,
                                            _opts.engine);
    Scheduler::Options sopts;
    sopts.workers = _opts.workers;
    sopts.maxQueuedPerClient = _opts.maxQueuedPerClient;
    sopts.maxQueuedTotal = _opts.maxQueuedTotal;
    _scheduler = std::make_unique<Scheduler>(sopts);
}

Server::~Server()
{
    shutdown();
    wait();
}

bool
Server::start(std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg + ": " + std::strerror(errno);
        if (_listenFd >= 0) {
            ::close(_listenFd);
            _listenFd = -1;
        }
        return false;
    };

    _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listenFd < 0)
        return fail("socket");
    int one = 1;
    ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(_opts.port);
    if (::inet_pton(AF_INET, _opts.host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("inet_pton(" + _opts.host + ")");
    }
    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        return fail("bind");
    if (::listen(_listenFd, 64) != 0)
        return fail("listen");

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(_listenFd, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0)
        return fail("getsockname");
    _port = ntohs(bound.sin_port);

    _state->acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    uint64_t nextClient = 1;
    for (;;) {
        int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM) {
                // Out of fds or buffers: the connection stays in the
                // backlog until a closing client frees one.
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                continue;
            }
            return; // listen socket closed: shutting down
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_shared<Conn>(fd, nextClient++);
        std::vector<std::thread> finished;
        {
            std::lock_guard<std::mutex> g(_state->mu);
            if (_state->stopRequested)
                return;
            ++_state->accepted;
            // Spawned under the lock, so the reader finds its entry
            // even when its connection ends at once.
            _state->readers.emplace(
                conn->id,
                std::make_pair(conn, std::thread([this, conn] {
                                   readerLoop(conn);
                               })));
            finished.swap(_state->finished);
        }
        for (std::thread &t : finished)
            t.join();
    }
}

void
Server::readerLoop(std::shared_ptr<Conn> conn)
{
    LineReader reader(conn->fd, _maxLine);
    std::string line;
    while (reader.next(&line)) {
        if (line.empty())
            continue;
        handleLine(conn, line);
    }
    if (reader.overflowed()) {
        // The stream cannot be re-synchronized past an oversized
        // frame: answer with the structured error, then drop the
        // connection.
        conn->send(makeError(
            nullptr, ErrorCode::FrameTooLarge,
            "request line exceeds " + std::to_string(_maxLine) +
                " bytes"));
        // Half-close so a peer draining its receive side sees EOF
        // right after the error frame instead of hanging until
        // server teardown closes the fd.
        ::shutdown(conn->fd, SHUT_RDWR);
    }
    // The reader is the liveness authority: once the request stream
    // ends (EOF, error, oversize), every point this client still has
    // queued is cancelled so workers stop burning cycles for a dead
    // socket.
    conn->markDead();
    _scheduler->release(conn->id);
    // Release the connection: the fd closes once the jobs still
    // holding it finish. After wait() took the map, wait() joins.
    std::lock_guard<std::mutex> g(_state->mu);
    auto it = _state->readers.find(conn->id);
    if (it != _state->readers.end()) {
        _state->finished.push_back(std::move(it->second.second));
        _state->readers.erase(it);
    }
}

int64_t
Server::retryAfterMs() const
{
    Scheduler::Stats s = _scheduler->stats();
    unsigned workers = std::max(1u, _scheduler->workers());
    int64_t ms = 10 * static_cast<int64_t>(s.queued / workers + 1);
    return std::min<int64_t>(ms, 2000);
}

void
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   const std::string &line)
{
    Json request;
    std::string err;
    if (!Json::parse(line, &request, &err) || !request.isObject()) {
        conn->send(makeError(nullptr, ErrorCode::MalformedRequest,
                             "malformed request: " +
                                 (err.empty() ? "not an object" : err)));
        return;
    }
    // An optional relative deadline; the absolute deadline is stamped
    // here, at receipt, so queueing time counts against it.
    Clock::time_point deadline{};
    int64_t deadlineMs = request.getInt("deadline_ms", -1);
    if (deadlineMs >= 0)
        deadline = Clock::now() + std::chrono::milliseconds(deadlineMs);

    const Json *idp = request.find("id");
    const Json id = idp ? *idp : Json();
    const std::string op = request.getStr("op", "");
    if (op == "simulate") {
        handleSimulate(conn, id, request, deadline);
    } else if (op == "sweep") {
        handleSweep(conn, id, request, deadline);
    } else if (op == "stats") {
        handleStats(conn, id);
    } else if (op == "shutdown") {
        conn->send(makeResponse(&id, "bye"));
        shutdown();
    } else {
        conn->send(makeError(&id, ErrorCode::BadRequest,
                             "unknown op '" + op + "'"));
    }
}

/** What one run produced: the report and whether its program was
 *  already warm, or the failure's code and message. */
struct Server::RunResult {
    ErrorCode code = ErrorCode::Ok;
    std::string message;
    bool warm = false;
    sim::SimReport report;
};

Scheduler::Task
Server::runTask(const std::shared_ptr<Conn> &conn, ModelKey key,
                Clock::time_point deadline, Responder respond)
{
    Scheduler::Task task;
    task.deadline = deadline;
    task.cancel = conn->gone;
    task.job = [this, key = std::move(key), deadline,
                respond = std::move(respond)](Scheduler::Outcome outcome) {
        if (outcome == Scheduler::Outcome::Cancelled) {
            respond(nullptr);
            return;
        }
        if (outcome == Scheduler::Outcome::Run) {
            if (int ms = FaultInjector::stallMs())
                std::this_thread::sleep_for(std::chrono::milliseconds(ms));
            if (deadlinePassed(deadline))
                outcome = Scheduler::Outcome::Expired;
        }
        RunResult result;
        auto fail = [&](ErrorCode code, const char *message) {
            result.code = code;
            result.message = message;
            respond(&result);
        };
        if (outcome == Scheduler::Outcome::Expired)
            return fail(ErrorCode::DeadlineExceeded, kDeadlineMsg);
        // Framing runs inside the try too: whatever throws answers a
        // structured error instead of escaping the worker.
        try {
            if (FaultInjector::workerFault())
                throw std::runtime_error("injected worker fault");
            auto handle = _cache->acquire(key);
            result.warm = handle.warm();
            result.report = handle.run();
            respond(&result);
        } catch (const Error &e) {
            // A failure that names its code (a failed build, a run past
            // the op budget, a deadlock); the session stays usable.
            fail(e.code(), e.what());
        } catch (const std::bad_alloc &) {
            // The build or the run ran out of memory: fail this
            // request only. A failed build is discarded, and the
            // session's next run resets what a failed run left.
            fail(ErrorCode::ResourceExhausted, "out of memory");
        } catch (const std::exception &e) {
            fail(ErrorCode::Internal, e.what());
        }
    };
    return task;
}

void
Server::handleSimulate(const std::shared_ptr<Conn> &conn, const Json &id,
                       const Json &request, Clock::time_point deadline)
{
    ModelKind kind;
    if (!modelFromName(request.getStr("model", ""), &kind)) {
        conn->send(makeError(&id, ErrorCode::BadRequest,
                             "unknown or missing \"model\""));
        return;
    }
    ModelKey key;
    std::string err;
    const Json *config = request.find("config");
    if (!modelKeyFromJson(kind, config ? *config : Json(), &key, &err)) {
        conn->send(makeError(&id, ErrorCode::BadRequest, err));
        return;
    }

    auto respond = [conn, id, kind](const RunResult *result) {
        if (!result)
            return; // cancelled: nobody left to answer
        if (result->code != ErrorCode::Ok) {
            conn->send(makeError(&id, result->code, result->message));
            return;
        }
        Json resp = makeResponse(&id, "report");
        resp.set("model", modelName(kind));
        resp.set("cached", result->warm);
        resp.set("report", reportToJson(result->report));
        conn->send(resp);
    };
    switch (_scheduler->submit(
        conn->id,
        runTask(conn, std::move(key), deadline, std::move(respond)))) {
    case Scheduler::Submit::Queued: break;
    case Scheduler::Submit::Rejected:
        conn->send(makeError(&id, ErrorCode::Backpressure,
                             "client queue full", retryAfterMs()));
        break;
    case Scheduler::Submit::Shed:
        conn->send(makeError(&id, ErrorCode::Backpressure,
                             "server overloaded", retryAfterMs()));
        break;
    case Scheduler::Submit::Stopped:
        conn->send(makeError(&id, ErrorCode::ShuttingDown,
                             "server shutting down"));
        break;
    }
}

void
Server::handleSweep(const std::shared_ptr<Conn> &conn, const Json &id,
                    const Json &request, Clock::time_point deadline)
{
    std::string err;

    // Shared by every point job. The grid is stored by value and the
    // points are enumerated from the *stored* grid, so their borrowed
    // Grid pointer stays valid for the sweep's lifetime.
    struct SweepState {
        SweepSpec spec;
        sweep::Grid grid;
        std::vector<sweep::Point> points;
        Json id;
        std::atomic<size_t> remaining{0};
    };
    auto state = std::make_shared<SweepState>();
    if (!SweepSpec::fromJson(request, &state->spec, &err)) {
        conn->send(makeError(&id, ErrorCode::BadRequest, err));
        return;
    }
    state->grid = state->spec.grid();
    state->points = state->grid.points();
    state->id = id;
    if (state->points.empty()) {
        conn->send(makeError(&id, ErrorCode::BadRequest,
                             "sweep grid has no points"));
        return;
    }
    state->remaining.store(state->points.size());

    Json begin = makeResponse(&id, "sweep_begin");
    begin.set("model", modelName(state->spec.base.kind));
    begin.set("points", state->points.size());
    Json columns = Json::array();
    for (const auto &col : state->spec.schema())
        columns.push(col.name);
    begin.set("columns", std::move(columns));
    if (!conn->send(begin))
        return;

    for (size_t i = 0; i < state->points.size(); ++i) {
        auto respond = [conn, state, i](const RunResult *result) {
            const sweep::Point &point = state->points[i];
            if (result) {
                const bool ok = result->code == ErrorCode::Ok;
                Json resp =
                    ok ? makeResponse(&state->id, "row")
                       : makeError(&state->id, result->code,
                                   result->message);
                resp.set("index", point.index());
                if (ok)
                    resp.set("cells", cellsToJson(state->spec.row(
                                          point, result->report)));
                conn->send(resp);
            }
            // Every outcome, cancellation included, counts the point
            // down exactly once, so sweep_end (or the attempt to send
            // it to a dead socket) always happens and nothing leaks.
            if (state->remaining.fetch_sub(1) == 1) {
                Json end = makeResponse(&state->id, "sweep_end");
                end.set("rows", state->points.size());
                conn->send(end);
            }
        };
        // Blocking submit: a grid larger than the queue cap stalls
        // this client's reader (its own backpressure), not the pool.
        if (_scheduler->submit(
                conn->id,
                runTask(conn, state->spec.keyAt(state->points[i]),
                        deadline, std::move(respond)),
                /*block=*/true) != Scheduler::Submit::Queued) {
            conn->send(makeError(&id, ErrorCode::ShuttingDown,
                                 "server shutting down"));
            return;
        }
    }
}

void
Server::handleStats(const std::shared_ptr<Conn> &conn, const Json &id)
{
    Json resp = makeResponse(&id, "stats");

    ProgramCache::Stats cs = _cache->stats();
    Json cache = Json::object();
    cache.set("hits", cs.hits);
    cache.set("misses", cs.misses);
    cache.set("evictions", cs.evictions);
    cache.set("recycled", cs.recycled);
    cache.set("collisions", cs.collisions);
    cache.set("runs", cs.runs);
    cache.set("entries", cs.entries);
    cache.set("capacity", cs.capacity);
    resp.set("cache", std::move(cache));

    Scheduler::Stats ss = _scheduler->stats();
    Json sched = Json::object();
    sched.set("workers", _scheduler->workers());
    sched.set("submitted", ss.submitted);
    sched.set("rejected", ss.rejected);
    sched.set("shed", ss.shed);
    sched.set("executed", ss.executed);
    sched.set("expired", ss.expired);
    sched.set("cancelled", ss.cancelled);
    sched.set("queued", ss.queued);
    sched.set("clients", ss.clients);
    resp.set("scheduler", std::move(sched));

    Json server = Json::object();
    {
        std::lock_guard<std::mutex> g(_state->mu);
        server.set("connections", _state->accepted);
    }
    server.set("backend", sim::backendName(_opts.engine.backend));
    server.set("max_line_bytes", _maxLine);
    resp.set("server", std::move(server));

    if (FaultInjector::enabled()) {
        FaultInjector::Stats fs = FaultInjector::stats();
        Json faults = Json::object();
        faults.set("spec", FaultInjector::describe());
        faults.set("torn", fs.torn);
        faults.set("drops", fs.drops);
        faults.set("worker_faults", fs.workerFaults);
        faults.set("build_faults", fs.buildFaults);
        faults.set("stalls", fs.stalls);
        faults.set("injected", fs.injected);
        resp.set("faults", std::move(faults));
    }
    conn->send(resp);
}

void
Server::shutdown()
{
    {
        std::lock_guard<std::mutex> g(_state->mu);
        if (_state->stopRequested)
            return;
        _state->stopRequested = true;
        // Shutting the listen socket down pops the accept loop out of
        // accept(). Done under the lock: wait() closes and resets the
        // fd only after it has seen stopRequested.
        if (_listenFd >= 0)
            ::shutdown(_listenFd, SHUT_RDWR);
    }
    _state->stopCv.notify_all();
}

void
Server::wait()
{
    {
        std::unique_lock<std::mutex> lk(_state->mu);
        _state->stopCv.wait(lk,
                            [this] { return _state->stopRequested; });
        if (_state->tornDown)
            return;
        _state->tornDown = true;
    }
    if (_state->acceptThread.joinable())
        _state->acceptThread.join();
    if (_listenFd >= 0) {
        ::close(_listenFd);
        _listenFd = -1;
    }
    // Finish every queued job (streams pending rows to still-open
    // connections), then stop the pool.
    _scheduler->stop();
    // Wake blocked readers and join them.
    decltype(_state->readers) readers;
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> g(_state->mu);
        readers.swap(_state->readers);
        finished.swap(_state->finished);
    }
    for (auto &r : readers) {
        r.second.first->markDead();
        ::shutdown(r.second.first->fd, SHUT_RDWR);
    }
    for (auto &r : readers)
        r.second.second.join();
    for (std::thread &t : finished)
        t.join();
}

} // namespace serve
} // namespace eq
