/**
 * @file
 * End-to-end service tests against an in-process Server on an
 * ephemeral port: simulate answers with correct cache-warmth bits and
 * deterministic reports, served sweeps re-merge byte-identically to
 * the in-process SweepRunner at several worker counts, stats expose
 * cross-request reuse, protocol errors answer without killing the
 * connection, and concurrent clients get deterministic answers.
 *
 * Hardening coverage: structured error codes, deadline_ms expiry,
 * client-disconnect-mid-sweep cancellation (the queues drain and a
 * later client still gets byte-identical cache-warm results),
 * backpressure with retry_after_ms, oversized-frame rejection,
 * out-of-range configs answered bad_request on a connection that keeps
 * serving, and retry/backoff recovery through injected faults. Every
 * injected failure answers the same code for a simulate and for a
 * sweep point (which also carries its index), since both run through
 * one worker job.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/faults.hh"
#include "serve/models.hh"
#include "serve/server.hh"

namespace {

using namespace eq;
using serve::Client;
using serve::ErrorCode;
using serve::FaultInjector;
using serve::Json;
using serve::Server;
using serve::ServerOptions;

/** Start an in-process server (ephemeral port) or fail the test. */
std::unique_ptr<Server>
startServer(unsigned workers = 2)
{
    ServerOptions opts;
    opts.workers = workers;
    auto server = std::make_unique<Server>(opts);
    std::string err;
    EXPECT_TRUE(server->start(&err)) << err;
    return server;
}

void
connectTo(const Server &server, Client *client)
{
    std::string err;
    ASSERT_TRUE(client->connect("127.0.0.1", server.port(), &err))
        << err;
}

/** The report body minus wall_s — the deterministic part. */
std::string
deterministicPart(const Json &report)
{
    Json out = Json::object();
    for (const auto &member : report.members())
        if (member.first != "wall_s")
            out.set(member.first, member.second);
    return out.dump();
}

serve::SweepSpec
twoAxisSpec()
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes.push_back({"ah", {2, 4}});
    spec.axes.push_back({"aw", {2, 4, 8}});
    return spec;
}

TEST(ServeServer, SimulateColdThenWarm)
{
    auto server = startServer();
    Client client;
    connectTo(*server, &client);

    serve::ModelKey key = serve::defaultKey(serve::ModelKind::Systolic);
    auto cold = client.simulate(key);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.cached);
    EXPECT_GT(cold.report.getInt("cycles", 0), 0);

    auto warm = client.simulate(key);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(deterministicPart(warm.report),
              deterministicPart(cold.report));

    // A different config is cold again.
    serve::ModelKey other = key;
    other.systolic.ah = 8;
    auto cold2 = client.simulate(other);
    ASSERT_TRUE(cold2.ok) << cold2.error;
    EXPECT_FALSE(cold2.cached);
}

TEST(ServeServer, ServedSweepMatchesLocalAtAnyWorkerCount)
{
    serve::SweepSpec spec = twoAxisSpec();
    const std::string localCsv = serve::runLocalSweep(spec).csv();

    for (unsigned workers : {1u, 3u}) {
        auto server = startServer(workers);
        Client client;
        connectTo(*server, &client);
        sweep::Table served(spec.schema());
        std::string err;
        ASSERT_TRUE(client.sweepTable(spec, &served, &err))
            << "workers=" << workers << ": " << err;
        EXPECT_EQ(served.csv(), localCsv) << "workers=" << workers;
    }
}

TEST(ServeServer, ServedSocSweepMatchesLocal)
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Soc);
    spec.axes.push_back({"tiles", {1, 2}});
    spec.axes.push_back({"bus_bw", {8, 16}});

    auto server = startServer(2);
    Client client;
    connectTo(*server, &client);
    sweep::Table served(spec.schema());
    std::string err;
    ASSERT_TRUE(client.sweepTable(spec, &served, &err)) << err;
    EXPECT_EQ(served.csv(), serve::runLocalSweep(spec).csv());
}

TEST(ServeServer, StatsExposeCrossRequestReuse)
{
    auto server = startServer();
    Client a;
    connectTo(*server, &a);
    Client b;
    connectTo(*server, &b);

    serve::ModelKey key = serve::defaultKey(serve::ModelKind::Systolic);
    ASSERT_TRUE(a.simulate(key).ok);
    ASSERT_TRUE(b.simulate(key).ok); // second client reuses a's program

    Json stats;
    std::string err;
    ASSERT_TRUE(a.stats(&stats, &err)) << err;
    const Json *cache = stats.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->getInt("misses", -1), 1);
    EXPECT_EQ(cache->getInt("hits", -1), 1);
    EXPECT_EQ(cache->getInt("runs", -1), 2);
    EXPECT_EQ(cache->getInt("recycled", -1), 0); // nothing evicted
    const Json *srv = stats.find("server");
    ASSERT_NE(srv, nullptr);
    EXPECT_EQ(srv->getInt("connections", -1), 2);
}

TEST(ServeServer, ProtocolErrorsKeepConnectionAlive)
{
    auto server = startServer();
    Client client;
    connectTo(*server, &client);

    Json bad = Json::object();
    bad.set("op", "simulate");
    bad.set("model", "warpdrive");
    Json resp;
    std::string err;
    ASSERT_TRUE(client.roundTrip(bad, &resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok", true));
    serve::ErrorInfo info = serve::parseError(resp);
    EXPECT_EQ(info.code, ErrorCode::BadRequest);
    EXPECT_NE(info.message.find("model"), std::string::npos);

    Json typo = Json::object();
    typo.set("op", "simulate");
    typo.set("model", "systolic");
    Json cfg = Json::object();
    cfg.set("ahh", 4);
    typo.set("config", cfg);
    ASSERT_TRUE(client.roundTrip(typo, &resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok", true));
    EXPECT_EQ(serve::parseError(resp).code, ErrorCode::BadRequest);

    Json unknown = Json::object();
    unknown.set("op", "frobnicate");
    unknown.set("id", 17);
    ASSERT_TRUE(client.roundTrip(unknown, &resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok", true));
    EXPECT_EQ(resp.getInt("id", -1), 17);
    EXPECT_EQ(serve::parseError(resp).code, ErrorCode::BadRequest);

    // The connection survives all of it.
    auto good =
        client.simulate(serve::defaultKey(serve::ModelKind::Systolic));
    EXPECT_TRUE(good.ok) << good.error;
}

TEST(ServeServer, OutOfRangeConfigsAreRejectedAndServingContinues)
{
    // Each of these once killed the daemon (SIGFPE, abort, exit), was
    // silently truncated, or answered a plausible report.
    const struct {
        const char *model;
        const char *config;
        const char *field;
    } cases[] = {
        {"systolic", R"({"ah":0})", "ah"},
        {"systolic", R"({"aw":0})", "aw"},
        {"systolic", R"({"h":1,"w":1,"fh":2,"fw":2})", "fh"},
        {"systolic", R"({"ah":4294967298})", "ah"},
        {"systolic", R"({"ah":-3})", "ah"},
        {"systolic", R"({"c":-1})", "'c'"},
        {"soc", R"({"accels":[]})", "accels"},
        {"soc", R"({"dmas":0})", "dmas"},
        {"soc", R"({"sram_banks":0})", "sram_banks"},
        {"soc", R"({"steps":-1})", "steps"},
        {"soc", R"({"bus_bw":-1})", "bus_bw"},
        {"soc", R"({"accels":[{"link_bw":-1}]})", "link_bw"},
        {"soc", R"({"accels":[{"ah":0,"aw":0}]})", "ah"},
        {"pipeline", R"({"stages":0})", "stages"},
        {"pipeline", R"({"batches":0})", "batches"},
        {"pipeline", R"({"tile_elems":-4})", "tile_elems"},
    };
    auto server = startServer();
    Client client;
    connectTo(*server, &client);
    for (const auto &c : cases) {
        Json req = Json::object();
        req.set("op", "simulate");
        req.set("model", c.model);
        Json cfg;
        std::string err;
        ASSERT_TRUE(Json::parse(c.config, &cfg, &err)) << err;
        req.set("config", cfg);
        Json resp;
        ASSERT_TRUE(client.roundTrip(req, &resp, &err))
            << c.model << " " << c.config << ": " << err;
        EXPECT_FALSE(resp.getBool("ok", true)) << c.config;
        serve::ErrorInfo info = serve::parseError(resp);
        EXPECT_EQ(info.code, ErrorCode::BadRequest) << c.config;
        EXPECT_NE(info.message.find(c.field), std::string::npos)
            << c.config << ": " << info.message;
    }
    auto good =
        client.simulate(serve::defaultKey(serve::ModelKind::Systolic));
    EXPECT_TRUE(good.ok) << good.error;
}

TEST(ServeServer, ConcurrentClientsGetDeterministicAnswers)
{
    auto server = startServer(3);
    std::vector<serve::ModelKey> keys;
    for (int ah : {2, 4})
        for (int aw : {2, 4}) {
            serve::ModelKey key =
                serve::defaultKey(serve::ModelKind::Systolic);
            key.systolic.ah = ah;
            key.systolic.aw = aw;
            keys.push_back(key);
        }

    // Reference answers over one warm-up connection.
    std::vector<std::string> expect;
    {
        Client ref;
        connectTo(*server, &ref);
        for (const auto &key : keys) {
            auto result = ref.simulate(key);
            ASSERT_TRUE(result.ok) << result.error;
            expect.push_back(deterministicPart(result.report));
        }
    }

    const int kClients = 4, kIters = 3;
    std::vector<int> failures(kClients, 0);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Client client;
            connectTo(*server, &client);
            for (int i = 0; i < kIters; ++i)
                for (size_t k = 0; k < keys.size(); ++k) {
                    auto result = client.simulate(keys[(k + c) % 4]);
                    if (!result.ok ||
                        deterministicPart(result.report) !=
                            expect[(k + c) % 4])
                        ++failures[c];
                }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], 0) << "client " << c;

    // Every config compiled exactly once across all clients.
    Client statsClient;
    connectTo(*server, &statsClient);
    Json stats;
    std::string err;
    ASSERT_TRUE(statsClient.stats(&stats, &err)) << err;
    EXPECT_EQ(stats.find("cache")->getInt("misses", -1),
              int64_t(keys.size()));
}

/** Plain connected TCP socket to the server, or -1. */
int
rawConnect(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Poll stats until every accepted job has been resolved (no queued,
 *  no in-flight). Returns the final stats snapshot via @p stats. */
bool
awaitDrained(const Server &server, Json *stats)
{
    Client probe;
    std::string err;
    if (!probe.connect("127.0.0.1", server.port(), &err))
        return false;
    for (int i = 0; i < 1000; ++i) {
        if (!probe.stats(stats, &err))
            return false;
        const Json *s = stats->find("scheduler");
        if (s && s->getInt("queued", -1) == 0 &&
            s->getInt("executed", 0) + s->getInt("expired", 0) +
                    s->getInt("cancelled", 0) ==
                s->getInt("submitted", -1))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

TEST(ServeServer, DeadlineExceededWhenWorkStallsPastIt)
{
    auto server = startServer(1);
    FaultInjector::Scoped faults("stall=1,stall_ms=100,max=1");

    // Two back-to-back requests on one connection: the first draws
    // the injected 100 ms stall (single worker), so the second's
    // 30 ms deadline deterministically expires while it waits in the
    // queue behind it — the scheduler-side expiry path.
    int fd = rawConnect(server->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::writeLine(
        fd, "{\"op\":\"simulate\",\"id\":1,\"model\":\"systolic\","
            "\"config\":{\"ah\":2,\"aw\":2}}"));
    ASSERT_TRUE(serve::writeLine(
        fd, "{\"op\":\"simulate\",\"id\":2,\"model\":\"systolic\","
            "\"config\":{\"ah\":2,\"aw\":4},\"deadline_ms\":30}"));
    serve::LineReader reader(fd);
    std::string line, err;
    Json first, second;
    ASSERT_TRUE(reader.next(&line));
    ASSERT_TRUE(Json::parse(line, &first, &err)) << err;
    EXPECT_TRUE(first.getBool("ok", false)) << line;
    ASSERT_TRUE(reader.next(&line));
    ASSERT_TRUE(Json::parse(line, &second, &err)) << err;
    EXPECT_FALSE(second.getBool("ok", true));
    EXPECT_EQ(serve::parseError(second).code,
              ErrorCode::DeadlineExceeded);
    ::close(fd);

    // The stall budget is spent: a fresh client with the same
    // deadline now sails through.
    Client client;
    connectTo(*server, &client);
    auto ok = client.simulate(
        serve::defaultKey(serve::ModelKind::Systolic));
    EXPECT_TRUE(ok.ok) << ok.error;
    Json stats;
    ASSERT_TRUE(awaitDrained(*server, &stats));
    EXPECT_GE(stats.find("scheduler")->getInt("expired", 0), 1);
}

TEST(ServeServer, DisconnectMidSweepCancelsPendingPoints)
{
    ServerOptions opts;
    opts.workers = 1;
    auto server = std::make_unique<Server>(opts);
    std::string err;
    ASSERT_TRUE(server->start(&err)) << err;

    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes.push_back({"ah", {2, 4, 8}});
    spec.axes.push_back({"aw", {2, 4, 8}});
    const std::string localCsv = serve::runLocalSweep(spec).csv();

    {
        // Slow every point down so the disconnect beats the drain.
        FaultInjector::Scoped faults("stall=1,stall_ms=20");
        int fd = rawConnect(server->port());
        ASSERT_GE(fd, 0);
        Json request = spec.toJson();
        request.set("id", 1);
        ASSERT_TRUE(serve::writeLine(fd, request.dump()));
        serve::LineReader reader(fd);
        std::string line;
        ASSERT_TRUE(reader.next(&line)); // sweep_begin
        ASSERT_TRUE(reader.next(&line)); // first row
        ::close(fd); // vanish mid-stream, 7+ points still queued

        // Workers observe the cancellation and the queues drain —
        // without simulating for the dead socket.
        Json stats;
        ASSERT_TRUE(awaitDrained(*server, &stats));
        EXPECT_GE(stats.find("scheduler")->getInt("cancelled", 0), 1);
    }

    // A subsequent client gets the full, byte-identical table, and the
    // points that did run before the disconnect are cache-warm.
    Client again;
    connectTo(*server, &again);
    sweep::Table served(spec.schema());
    ASSERT_TRUE(again.sweepTable(spec, &served, &err)) << err;
    EXPECT_EQ(served.csv(), localCsv);
    Json stats;
    ASSERT_TRUE(again.stats(&stats, &err)) << err;
    EXPECT_GE(stats.find("cache")->getInt("hits", 0), 1);
}

TEST(ServeServer, BackpressureAnswersWithRetryAfterHint)
{
    ServerOptions opts;
    opts.workers = 1;
    opts.maxQueuedPerClient = 1;
    auto server = std::make_unique<Server>(opts);
    std::string err;
    ASSERT_TRUE(server->start(&err)) << err;

    // Hold the single worker busy for 200 ms so the flood below
    // overruns the one-entry queue deterministically.
    FaultInjector::Scoped faults("stall=1,stall_ms=200,max=1");
    int fd = rawConnect(server->port());
    ASSERT_GE(fd, 0);
    for (int i = 1; i <= 3; ++i) {
        Json request = Json::object();
        request.set("op", "simulate");
        request.set("id", i);
        request.set("model", "systolic");
        request.set("config",
                    serve::modelKeyToJson(
                        serve::defaultKey(serve::ModelKind::Systolic)));
        ASSERT_TRUE(serve::writeLine(fd, request.dump()));
    }
    serve::LineReader reader(fd);
    int okCount = 0, backpressured = 0;
    for (int i = 0; i < 3; ++i) {
        std::string line;
        ASSERT_TRUE(reader.next(&line));
        Json resp;
        ASSERT_TRUE(Json::parse(line, &resp, &err)) << err;
        if (resp.getBool("ok", false)) {
            ++okCount;
            continue;
        }
        serve::ErrorInfo info = serve::parseError(resp);
        EXPECT_EQ(info.code, ErrorCode::Backpressure);
        EXPECT_GE(info.retryAfterMs, 1);
        ++backpressured;
    }
    ::close(fd);
    EXPECT_GE(okCount, 1);      // the in-flight request always answers
    EXPECT_GE(backpressured, 1); // and at least one was refused
}

TEST(ServeServer, RetryPolicyRecoversFromWorkerFaults)
{
    auto server = startServer(1);
    Client client;
    serve::RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.baseDelayMs = 1;
    client.setRetryPolicy(policy);
    connectTo(*server, &client);

    // Exactly two injected worker faults, then quiescent: the third
    // attempt must succeed.
    FaultInjector::Scoped faults("werr=1,max=2");
    auto result = client.simulate(
        serve::defaultKey(serve::ModelKind::Systolic));
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(client.retriesPerformed(), 2u);
}

TEST(ServeServer, RetryPolicyRecoversFromTornWrites)
{
    auto server = startServer(1);
    Client client;
    serve::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseDelayMs = 1;
    client.setRetryPolicy(policy);
    connectTo(*server, &client);

    // The first response line is torn mid-frame and the connection
    // killed; the client reconnects and the repeat is byte-safe
    // because served results are deterministic.
    FaultInjector::Scoped faults("torn=1,max=1");
    auto result = client.simulate(
        serve::defaultKey(serve::ModelKind::Systolic));
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(client.retriesPerformed(), 1u);
}

TEST(ServeServer, BuildFaultIsStructuredAndRetryable)
{
    auto server = startServer(1);
    Client client;
    connectTo(*server, &client);

    serve::ModelKey key = serve::defaultKey(serve::ModelKind::Systolic);
    {
        FaultInjector::Scoped faults("build=1,max=1");
        auto result = client.simulate(key);
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.code, ErrorCode::BuildFailed);
        EXPECT_TRUE(serve::errorCodeRetryable(result.code));
    }
    // The failed build left the cache entry un-built, not poisoned:
    // the same connection retries and gets a working program.
    auto result = client.simulate(key);
    EXPECT_TRUE(result.ok) << result.error;
}

TEST(ServeServer, OversizedFrameAnsweredWithStructuredError)
{
    ServerOptions opts;
    opts.workers = 1;
    opts.maxLineBytes = 128;
    auto server = std::make_unique<Server>(opts);
    std::string err;
    ASSERT_TRUE(server->start(&err)) << err;

    int fd = rawConnect(server->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::writeLine(fd, std::string(512, 'x')));
    serve::LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(reader.next(&line));
    Json resp;
    ASSERT_TRUE(Json::parse(line, &resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok", true));
    EXPECT_EQ(serve::parseError(resp).code, ErrorCode::FrameTooLarge);
    // The stream cannot be resynchronized: the server closes it.
    EXPECT_FALSE(reader.next(&line));
    ::close(fd);
}

TEST(ServeServer, StatsReportTheResolvedBackend)
{
    // A default server runs every entry on the backend EQ_SIM_BACKEND
    // resolves to (compiled when unset), and says so — never "auto".
    const char *env = std::getenv("EQ_SIM_BACKEND");
    const std::string resolved = env && *env ? env : "compiled";
    auto server = startServer(1);
    Client client;
    connectTo(*server, &client);
    Json stats;
    std::string err;
    ASSERT_TRUE(client.stats(&stats, &err)) << err;
    ASSERT_NE(stats.find("server"), nullptr);
    EXPECT_EQ(stats.find("server")->getStr("backend", ""), resolved);

    // An explicit backend is reported as configured.
    ServerOptions opts;
    opts.workers = 1;
    opts.engine.backend = sim::Backend::Interp;
    Server interp(opts);
    ASSERT_TRUE(interp.start(&err)) << err;
    Client other;
    connectTo(interp, &other);
    ASSERT_TRUE(other.stats(&stats, &err)) << err;
    EXPECT_EQ(stats.find("server")->getStr("backend", ""), "interp");
}

/** A sweep over one point: every attempt runs exactly one worker job,
 *  so injected faults are drawn in lockstep with the attempts. */
serve::SweepSpec
onePointSpec()
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes.push_back({"ah", {4}});
    return spec;
}

TEST(ServeServer, FailuresAnswerAlikeForSimulateAndSweepPoints)
{
    struct Case {
        const char *faults;
        int64_t deadlineMs;
        ErrorCode code;
    };
    const Case cases[] = {
        {"build=1", -1, ErrorCode::BuildFailed},
        {"werr=1", -1, ErrorCode::Internal},
        // The stall outlasts the deadline, so the check after it
        // expires the run before it starts.
        {"stall=1,stall_ms=100", 30, ErrorCode::DeadlineExceeded},
    };
    const serve::SweepSpec spec = onePointSpec();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.faults);
        auto server = startServer(1);
        FaultInjector::Scoped faults(c.faults);

        Client client;
        connectTo(*server, &client);
        auto result = client.simulate(spec.base, c.deadlineMs);
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.code, c.code) << result.error;

        int fd = rawConnect(server->port());
        ASSERT_GE(fd, 0);
        Json request = spec.toJson();
        request.set("id", 7);
        if (c.deadlineMs >= 0)
            request.set("deadline_ms", c.deadlineMs);
        ASSERT_TRUE(serve::writeLine(fd, request.dump()));
        serve::LineReader reader(fd);
        std::string line, err;
        Json begin, point, end;
        ASSERT_TRUE(reader.next(&line));
        ASSERT_TRUE(Json::parse(line, &begin, &err)) << err;
        EXPECT_EQ(begin.getStr("type", ""), "sweep_begin") << line;
        ASSERT_TRUE(reader.next(&line));
        ASSERT_TRUE(Json::parse(line, &point, &err)) << err;
        EXPECT_FALSE(point.getBool("ok", true)) << line;
        EXPECT_EQ(serve::parseError(point).code, c.code) << line;
        EXPECT_EQ(point.getInt("index", -1), 0) << line;
        EXPECT_EQ(point.getInt("id", -1), 7) << line;
        ASSERT_TRUE(reader.next(&line));
        ASSERT_TRUE(Json::parse(line, &end, &err)) << err;
        EXPECT_EQ(end.getStr("type", ""), "sweep_end") << line;
        EXPECT_EQ(end.getInt("rows", -1), 1) << line;
        ::close(fd);
    }
}

TEST(ServeServer, FailedSweepLeavesNoStaleLineForTheNextRequest)
{
    // The point's deadline_exceeded fails the sweep (the code is not
    // retryable) while its sweep_end is still on the wire; the next
    // request on the same client must read its own answer.
    auto server = startServer(1);
    Client client;
    connectTo(*server, &client);
    const serve::SweepSpec spec = onePointSpec();
    {
        FaultInjector::Scoped faults("stall=1,stall_ms=100,max=1");
        sweep::Table served(spec.schema());
        std::string err;
        EXPECT_FALSE(
            client.sweepTable(spec, &served, &err, /*deadline_ms=*/30));
    }
    auto result = client.simulate(spec.base);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.report.getInt("cycles", 0), 0);
}

TEST(ServeServer, SweepAndStatsRetryThroughInjectedFaults)
{
    struct Case {
        const char *faults;
        serve::SweepSpec spec;
        uint64_t sweepRetries;
        uint64_t statsRetries;
    };
    // Worker faults fire only inside worker jobs: stats is answered
    // inline and never draws one. A torn first frame kills the
    // connection before any sweep point is queued, so the torn case
    // stays deterministic over a multi-point grid.
    const Case cases[] = {
        {"werr=1,max=2", onePointSpec(), 2, 0},
        {"torn=1,max=1", twoAxisSpec(), 1, 1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.faults);
        auto server = startServer(1);
        Client client;
        serve::RetryPolicy policy;
        policy.maxAttempts = 5;
        policy.baseDelayMs = 1;
        client.setRetryPolicy(policy);
        connectTo(*server, &client);
        std::string err;
        {
            FaultInjector::Scoped faults(c.faults);
            sweep::Table served(c.spec.schema());
            ASSERT_TRUE(client.sweepTable(c.spec, &served, &err)) << err;
            EXPECT_EQ(served.csv(), serve::runLocalSweep(c.spec).csv());
            EXPECT_EQ(client.retriesPerformed(), c.sweepRetries);
        }
        {
            FaultInjector::Scoped faults(c.faults);
            Json stats;
            ASSERT_TRUE(client.stats(&stats, &err)) << err;
            EXPECT_NE(stats.find("cache"), nullptr);
            EXPECT_EQ(client.retriesPerformed(),
                      c.sweepRetries + c.statsRetries);
        }
    }
}

TEST(ServeServer, ShutdownRequestStopsServer)
{
    auto server = startServer();
    Client client;
    connectTo(*server, &client);
    ASSERT_TRUE(client.simulate(serve::defaultKey(
                                    serve::ModelKind::Systolic))
                    .ok);
    std::string err;
    ASSERT_TRUE(client.shutdownServer(&err)) << err;
    server->wait(); // returns: the request really stopped the server

    // New connections are refused after shutdown.
    Client late;
    EXPECT_FALSE(late.connect("127.0.0.1", server->port(), &err));
}

} // namespace
