#include "loadgen.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_map>

namespace eq {
namespace perfbench {

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Requests sent and not yet answered, keyed by wire id. */
struct InFlight {
    uint32_t request;
    size_t slot; ///< index into the outcome vector
    Clock::time_point due;
    Clock::time_point sent;
};

void
complete(const Reply &r, const InFlight &f, bool from_due,
         std::vector<Outcome> *outs)
{
    Outcome &o = (*outs)[f.slot];
    o.answered = true;
    o.ok = r.response.getBool("ok", false);
    o.cached = r.response.getBool("cached", false);
    o.sentAt = f.sent;
    o.doneAt = r.at;
    o.rttMs = msBetween(f.sent, r.at);
    o.latencyMs = msBetween(from_due ? f.due : f.sent, r.at);
    if (const serve::Json *rep = r.response.find("report"))
        if (const serve::Json *w = rep->find("wall_s"))
            o.execMs = w->asReal() * 1e3;
    o.response = r.response;
}

} // namespace

TcpTransport::~TcpTransport()
{
    for (int fd : _fds)
        ::close(fd);
}

bool
TcpTransport::connect(uint16_t port, unsigned count, std::string *err)
{
    for (unsigned i = 0; i < count; ++i) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            *err = std::strerror(errno);
            return false;
        }
        _fds.push_back(fd);
        _bufs.emplace_back();
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            *err = std::string("connect: ") + std::strerror(errno);
            return false;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return true;
}

bool
TcpTransport::send(unsigned conn, const std::string &line)
{
    return serve::writeLine(_fds.at(conn), line);
}

bool
TcpTransport::poll(Clock::time_point deadline, std::vector<Reply> *out)
{
    const size_t before = out->size();
    std::vector<pollfd> pfds;
    for (int fd : _fds)
        pfds.push_back({fd, POLLIN, 0});
    while (out->size() == before) {
        double left = msBetween(Clock::now(), deadline);
        if (left <= 0)
            return true;
        int n = ::poll(pfds.data(), pfds.size(), int(left) + 1);
        if (n < 0 && errno != EINTR)
            return false;
        for (size_t i = 0; n > 0 && i < pfds.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char chunk[65536];
            ssize_t got = ::recv(pfds[i].fd, chunk, sizeof chunk, 0);
            if (got <= 0)
                return false;
            auto at = Clock::now();
            std::string &buf = _bufs[i];
            buf.append(chunk, size_t(got));
            size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                Reply r;
                std::string perr;
                if (!serve::Json::parse(buf.substr(0, nl), &r.response,
                                        &perr))
                    return false;
                buf.erase(0, nl + 1);
                r.id = uint64_t(r.response.getInt("id", 0));
                r.at = at;
                out->push_back(std::move(r));
            }
        }
    }
    return true;
}

std::vector<Outcome>
runOpenLoop(Transport &t, const std::vector<double> &due, const LineFn &line,
            Clock::time_point start, double drain_s,
            const std::function<void(uint32_t)> &before_send)
{
    std::vector<Outcome> outs(due.size());
    std::unordered_map<uint64_t, InFlight> inflight;
    std::vector<Reply> replies;
    uint64_t next_id = 1;
    auto due_at = [&](size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due[i]));
    };
    auto absorb = [&] {
        for (const Reply &r : replies) {
            auto it = inflight.find(r.id);
            if (it == inflight.end())
                continue;
            complete(r, it->second, /*from_due=*/true, &outs);
            inflight.erase(it);
        }
        replies.clear();
    };

    for (uint32_t i = 0; i < due.size(); ++i) {
        // Read answers until this request is due, then send it.
        while (Clock::now() < due_at(i)) {
            if (!t.poll(due_at(i), &replies))
                return outs;
            absorb();
        }
        if (before_send)
            before_send(i);
        uint64_t id = next_id++;
        auto sent = Clock::now();
        outs[i].request = i;
        outs[i].lateMs = msBetween(due_at(i), sent);
        if (!t.send(i % t.connections(), line(i, id)))
            return outs;
        inflight[id] = {i, i, due_at(i), sent};
    }
    auto drain_until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(drain_s));
    while (!inflight.empty() && Clock::now() < drain_until) {
        if (!t.poll(drain_until, &replies))
            break;
        absorb();
    }
    return outs;
}

std::vector<Outcome>
runClosedLoop(Transport &t, uint32_t first, uint32_t count, const LineFn &line,
              unsigned window, double seconds, size_t max_requests,
              double drain_s, double *elapsed_s)
{
    std::vector<Outcome> outs;
    std::unordered_map<uint64_t, std::pair<unsigned, InFlight>> inflight;
    std::vector<Reply> replies;
    uint64_t next_id = 1;
    uint32_t cursor = first;
    const auto start = Clock::now();
    const auto stop =
        max_requests ? Clock::time_point::max() - std::chrono::hours(1)
                     : start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    auto more = [&] {
        return max_requests ? outs.size() < max_requests
                            : Clock::now() < stop;
    };
    auto issue = [&](unsigned conn) {
        uint32_t i = cursor++ % count;
        uint64_t id = next_id++;
        auto sent = Clock::now();
        outs.push_back(Outcome());
        outs.back().request = i;
        inflight[id] = {conn, {i, outs.size() - 1, sent, sent}};
        return t.send(conn, line(i, id));
    };
    for (unsigned k = 0; k < window; ++k)
        for (unsigned c = 0; c < t.connections() && more(); ++c)
            if (!issue(c))
                return outs;
    auto drain_until = stop + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(drain_s));
    while (!inflight.empty() && Clock::now() < drain_until) {
        if (!t.poll(drain_until, &replies))
            break;
        for (const Reply &r : replies) {
            auto it = inflight.find(r.id);
            if (it == inflight.end())
                continue;
            unsigned conn = it->second.first;
            complete(r, it->second.second, /*from_due=*/false, &outs);
            inflight.erase(it);
            if (more() && !issue(conn))
                return outs;
        }
        replies.clear();
    }
    *elapsed_s = secondsSince(start);
    return outs;
}

} // namespace perfbench
} // namespace eq
