#include "serve/client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/stringutil.hh"

namespace eq {
namespace serve {

namespace {

uint64_t
xorshift64(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

bool
parseHostPort(const std::string &text, std::string *host, uint16_t *port)
{
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        !parseInt(text.substr(colon + 1), uint16_t{1}, port))
        return false;
    *host = text.substr(0, colon);
    return true;
}

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
    _reader.reset();
}

bool
Client::connect(const std::string &host, uint16_t port, std::string *err)
{
    close();
    _host = host;
    _port = port;
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg + ": " + std::strerror(errno);
        close();
        return false;
    };
    _fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_fd < 0)
        return fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return fail("inet_pton(" + host + ")");
    }
    if (::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0)
        return fail("connect " + host + ":" + std::to_string(port));
    int one = 1;
    ::setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    _reader = std::make_unique<LineReader>(_fd);
    return true;
}

bool
Client::reconnect(std::string *err)
{
    if (_host.empty()) {
        if (err)
            *err = "not connected";
        return false;
    }
    return connect(_host, _port, err);
}

void
Client::backoff(int attempt, int64_t retry_after_ms)
{
    if (_rng == 0)
        _rng = _policy.seed ? _policy.seed : 1;
    int64_t base = _policy.baseDelayMs > 0 ? _policy.baseDelayMs : 1;
    int64_t cap = _policy.maxDelayMs > 0 ? _policy.maxDelayMs : base;
    int64_t delay = base;
    for (int i = 1; i < attempt && delay < cap; ++i)
        delay *= 2;
    if (delay > cap)
        delay = cap;
    // Jitter the top half so a fleet of retrying clients desynchronizes
    // while the floor keeps every wait meaningful. Deterministic: the
    // stream depends only on the policy seed and the retry count.
    int64_t half = delay / 2;
    delay = half + static_cast<int64_t>(
                       xorshift64(_rng) %
                       static_cast<uint64_t>(half + 1));
    if (retry_after_ms > delay)
        delay = retry_after_ms; // the server knows its queue better
    ++_retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

bool
Client::sendRequest(const Json &request, std::string *err)
{
    if (_fd < 0) {
        if (err)
            *err = "not connected";
        return false;
    }
    if (!writeLine(_fd, request.dump())) {
        if (err)
            *err = std::string("send: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
Client::readResponse(Json *response, std::string *err)
{
    std::string line;
    if (!_reader || !_reader->next(&line)) {
        if (err)
            *err = "connection closed by server";
        return false;
    }
    std::string perr;
    if (!Json::parse(line, response, &perr) || !response->isObject()) {
        if (err)
            *err = "malformed response: " + perr;
        return false;
    }
    return true;
}

bool
Client::roundTrip(const Json &request, Json *response, std::string *err)
{
    return sendRequest(request, err) && readResponse(response, err);
}

bool
Client::call(const Json &request, Json *response, ErrorInfo *failure)
{
    if (!roundTrip(request, response, &failure->message))
        return false;
    if (response->getBool("ok", false))
        return true;
    *failure = parseError(*response);
    return false;
}

bool
Client::withRetries(const Attempt &attempt, ErrorInfo *failure,
                    bool close_on_failure)
{
    const int attempts = _policy.maxAttempts > 0 ? _policy.maxAttempts : 1;
    for (int n = 1;; ++n) {
        *failure = ErrorInfo();
        if ((connected() || reconnect(&failure->message)) &&
            attempt(failure))
            return true;
        // Transport failures (refused connect, dropped or torn
        // response: io_error) are always retryable: results are byte
        // deterministic, so re-asking cannot change the answer.
        if (failure->code == ErrorCode::IoError || close_on_failure)
            close(); // the next attempt or request reconnects
        if (n >= attempts || !errorCodeRetryable(failure->code))
            return false;
        backoff(n, failure->retryAfterMs);
    }
}

Client::SimulateResult
Client::simulate(const ModelKey &key, int64_t deadline_ms)
{
    SimulateResult result;
    ErrorInfo failure;
    result.ok = withRetries(
        [&](ErrorInfo *f) {
            Json request = Json::object();
            request.set("op", "simulate");
            request.set("id", _nextId++);
            request.set("model", modelName(key.kind));
            request.set("config", modelKeyToJson(key));
            if (deadline_ms >= 0)
                request.set("deadline_ms", deadline_ms);
            Json response;
            if (!call(request, &response, f))
                return false;
            result.cached = response.getBool("cached", false);
            if (const Json *report = response.find("report"))
                result.report = *report;
            return true;
        },
        &failure);
    if (!result.ok) {
        result.code = failure.code;
        result.error = failure.message;
    }
    return result;
}

bool
Client::sweepTable(const SweepSpec &spec, sweep::Table *out,
                   ErrorInfo *failure, int64_t deadline_ms)
{
    ErrorInfo local;
    ErrorInfo &f = failure ? *failure : local;
    f = ErrorInfo();
    // Always tear the connection down after a failed sweep: rows of the
    // aborted stream may still be in flight and would otherwise be read
    // as the answers to the retry or to the next request.
    return spec.validate(&f.message) &&
           withRetries(
               [&](ErrorInfo *attempt) {
                   return sweepTableOnce(spec, out, deadline_ms, attempt);
               },
               &f, /*close_on_failure=*/true);
}

bool
Client::sweepTableOnce(const SweepSpec &spec, sweep::Table *out,
                       int64_t deadline_ms, ErrorInfo *failure)
{
    std::string *err = &failure->message;
    Json request = spec.toJson();
    request.set("id", _nextId++);
    if (deadline_ms >= 0)
        request.set("deadline_ms", deadline_ms);
    if (!sendRequest(request, err))
        return false;

    auto serverError = [&](const Json &msg) {
        *failure = parseError(msg);
        return false;
    };

    Json begin;
    if (!readResponse(&begin, err))
        return false;
    if (!begin.getBool("ok", false))
        return serverError(begin);
    if (begin.getStr("type", "") != "sweep_begin") {
        *err = "expected sweep_begin, got '" + begin.getStr("type", "") +
               "'";
        return false;
    }
    const std::vector<sweep::Column> schema = spec.schema();
    const size_t points =
        static_cast<size_t>(begin.getInt("points", 0));

    // Rows arrive in completion order; slot them by dense point index
    // so the merged table matches the in-process nested-loop order.
    std::vector<std::vector<sweep::Cell>> rows(points);
    std::vector<bool> seen(points, false);
    size_t received = 0;
    for (;;) {
        Json msg;
        if (!readResponse(&msg, err))
            return false;
        if (!msg.getBool("ok", false))
            return serverError(msg);
        const std::string type = msg.getStr("type", "");
        if (type == "sweep_end")
            break;
        if (type != "row") {
            *err = "unexpected message type '" + type +
                   "' inside sweep stream";
            return false;
        }
        const size_t index =
            static_cast<size_t>(msg.getInt("index", -1));
        const Json *cells = msg.find("cells");
        if (index >= points || !cells || !cells->isArray() ||
            cells->size() != schema.size()) {
            *err = "malformed row line";
            return false;
        }
        if (seen[index]) {
            *err = "duplicate row index " + std::to_string(index);
            return false;
        }
        seen[index] = true;
        std::vector<sweep::Cell> row;
        if (!cellsFromJson(*cells, schema, &row, err))
            return false;
        rows[index] = std::move(row);
        ++received;
    }
    if (received != points) {
        *err = "sweep_end after " + std::to_string(received) + " of " +
               std::to_string(points) + " rows";
        return false;
    }

    sweep::Table table(schema);
    for (auto &row : rows)
        table.addRow(std::move(row));
    *out = std::move(table);
    return true;
}

bool
Client::stats(Json *out, std::string *err)
{
    ErrorInfo failure;
    const bool ok = withRetries(
        [&](ErrorInfo *f) {
            Json request = Json::object();
            request.set("op", "stats");
            request.set("id", _nextId++);
            Json response;
            if (!call(request, &response, f))
                return false;
            *out = std::move(response);
            return true;
        },
        &failure);
    if (!ok && err)
        *err = failure.message;
    return ok;
}

bool
Client::shutdownServer(std::string *err)
{
    // Deliberately never retried: a lost ack usually means the server
    // is already gone, and re-sending against a restarted instance
    // would shut down the wrong process.
    Json request = Json::object();
    request.set("op", "shutdown");
    request.set("id", _nextId++);
    Json response;
    ErrorInfo failure;
    if (call(request, &response, &failure))
        return true;
    if (err)
        *err = failure.message;
    return false;
}

} // namespace serve
} // namespace eq
