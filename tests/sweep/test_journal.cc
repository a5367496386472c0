/**
 * @file
 * Journal semantics: round-trip resume, the pinned recovery policy
 * (torn/bit-flipped *tail* records truncate and recompute; damage with
 * valid records after it refuses as Corrupt; a header-less file is
 * recreated; duplicate records resolve last-write-wins), and the
 * header checks that keep a stale journal from silently merging into
 * the wrong sweep; the pinned file bytes; a failed append that stops
 * the sweep from simulating further points; and a throwing point that
 * fails the sweep but leaves the rows before it replayable.
 *
 * Shards: stripes tile the grid exactly once, in order, and the merge
 * contract — shard journals merged by dense point index are
 * byte-identical to the single-process SweepRunner table, in every
 * backend mode, with duplicates resolving last-write-wins and missing
 * points reported rather than papered over.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

#include "base/fsutil.hh"
#include "serve/models.hh"
#include "sweep/journal.hh"

namespace {

using namespace eq;
using sweep::Cell;
using sweep::Column;
using sweep::ValueKind;

std::vector<Column>
abSchema()
{
    return {{"a", ValueKind::Int, 0, 0},
            {"b", ValueKind::Int, 0, 0},
            {"prod", ValueKind::Int, 0, 0}};
}

sweep::Grid
abGrid()
{
    sweep::Grid g;
    g.axis("a", {1, 2, 3}).axis("b", {5, 6});
    return g;
}

std::string
abKey(const sweep::Point &p)
{
    return "a=" + std::to_string(p.at("a")) +
           ",b=" + std::to_string(p.at("b"));
}

std::vector<Cell>
abRow(const sweep::Point &p)
{
    return {p.at("a"), p.at("b"), p.at("a") * p.at("b")};
}

/** File contents (must exist). */
std::string
slurp(const std::string &path)
{
    std::string text, err;
    EXPECT_TRUE(fs::readFile(path, &text, &err)) << err;
    return text;
}

void
spill(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** A correctly CRC-sealed record line, the way RowLog::append builds
 *  one — for forging duplicates and collision probes. */
std::string
sealedRecord(size_t index, const std::string &key,
             const std::vector<Cell> &cells)
{
    serve::Json rec = serve::Json::object();
    rec.set("i", static_cast<int64_t>(index));
    rec.set("key", key);
    rec.set("cells", serve::cellsToJson(cells));
    std::string payload = rec.dump();
    uint32_t crc = fs::crc32(payload.data(), payload.size());
    payload.pop_back();
    return payload + ",\"crc\":" + std::to_string(crc) + "}\n";
}

class JournalTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "eq_journal_" +
               std::string(info->name()) + ".ndjson";
        std::remove(path.c_str());
        engine.backend = sim::Backend::Interp;
    }

    /** Run the a×b sweep journaled at `path`; returns the status and
     *  fills table/stats. @p calls counts RowFn invocations. */
    sweep::JournalStatus
    run(sweep::Table *table, sweep::ResumeStats *stats,
        std::string *err, size_t *calls = nullptr,
        const sweep::Grid *grid_override = nullptr,
        const std::string &salt = "")
    {
        sweep::Grid grid = grid_override ? *grid_override : abGrid();
        auto points = grid.points();
        sweep::JournalOptions opts;
        opts.journalPath = path;
        sweep::SweepRunner runner({1});
        return runJournaledSweep(
            runner, points, abSchema(), abKey,
            [&](const sweep::Point &p, unsigned) {
                if (calls)
                    ++*calls;
                return abRow(p);
            },
            opts, sweep::gridIdentity(points, abSchema(), salt, engine),
            table, stats, err);
    }

    /** A fresh path next to `path`, for tests with several files. */
    std::string
    sibling(const std::string &leaf) const
    {
        std::string p = path + "." + leaf;
        std::remove(p.c_str());
        return p;
    }

    std::string path;
    sim::EngineOptions engine;
};

TEST_F(JournalTest, HeaderRoundTripAndMatches)
{
    sweep::RowLogHeader h;
    h.gridHash = 0x0123456789abcdefull;
    h.numPoints = 42;
    h.schemaSig = "a:i;x:r;s:s";
    h.backend = "compiled";
    h.salt = "model base";

    sweep::RowLogHeader back;
    std::string err;
    ASSERT_TRUE(sweep::RowLogHeader::fromJson(
        h.toJson(), sweep::RowLogHeader::Kind::Journal, &back, &err))
        << err;
    std::string why;
    EXPECT_TRUE(h.matches(back, &why)) << why;

    back.gridHash ^= 1;
    EXPECT_FALSE(h.matches(back, &why));
    EXPECT_NE(why.find("grid_hash"), std::string::npos) << why;

    back = h;
    back.backend = "interp";
    EXPECT_FALSE(h.matches(back, &why));
    EXPECT_NE(why.find("backend"), std::string::npos) << why;
}

TEST_F(JournalTest, SchemaSignatureNamesEveryColumnAndKind)
{
    EXPECT_EQ(sweep::schemaSignature(abSchema()), "a:i;b:i;prod:i");
    EXPECT_EQ(sweep::schemaSignature({{"x", ValueKind::Real, 0, 3},
                                      {"tag", ValueKind::Str, 0, 0}}),
              "x:r;tag:s");
}

TEST_F(JournalTest, HashPointsSeesValuesAndOrder)
{
    const sweep::Grid g1 = abGrid();
    uint64_t h1 = sweep::hashPoints(g1.points());

    sweep::Grid g2;
    g2.axis("a", {1, 2, 3}).axis("b", {5, 7}); // one value changed
    EXPECT_NE(h1, sweep::hashPoints(g2.points()));

    sweep::Grid g3;
    g3.axis("a", {5, 6}).axis("b", {1, 2, 3}); // axes swapped
    EXPECT_NE(h1, sweep::hashPoints(g3.points()));

    // Persisted in every journal header: earlier journals resume only
    // while this value holds.
    sweep::Grid g4;
    g4.axis("ah", {2, 4, 8});
    EXPECT_EQ(sweep::hashPoints(g4.points()), 0x689dc9c5c55823abull);
}

TEST_F(JournalTest, ResumeReplaysEverythingAndMatchesByteForByte)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    size_t calls = 0;
    ASSERT_EQ(run(&t1, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 6u);
    EXPECT_EQ(st.computed, 6u);

    sweep::Table t2{abSchema()};
    calls = 0;
    ASSERT_EQ(run(&t2, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 0u) << "resume must not recompute";
    EXPECT_EQ(st.fromJournal, 6u);
    EXPECT_EQ(st.computed, 0u);
    EXPECT_EQ(t1.csv(), t2.csv());
}

/** The whole file, header line included: journals written by earlier
 *  releases resume only while these bytes hold. */
TEST_F(JournalTest, FileBytesArePinned)
{
    sweep::Grid grid;
    grid.axis("a", {1, 2, 3}).axis("b", {5});
    sweep::Table t{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t, &st, &err, nullptr, &grid, "pin"),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(slurp(path),
              "{\"journal\":\"eqsweep\",\"version\":1,"
              "\"grid_hash\":\"bc336acfc656ec20\",\"points\":3,"
              "\"schema\":\"a:i;b:i;prod:i\",\"backend\":\"interp\","
              "\"salt\":\"pin\"}\n"
              "{\"i\":0,\"key\":\"a=1,b=5\",\"cells\":[1,5,5],"
              "\"crc\":1604940431}\n"
              "{\"i\":1,\"key\":\"a=2,b=5\",\"cells\":[2,5,10],"
              "\"crc\":3255338826}\n"
              "{\"i\":2,\"key\":\"a=3,b=5\",\"cells\":[3,5,15],"
              "\"crc\":43982337}\n");
}

TEST_F(JournalTest, TornTailRecordIsTruncatedAndRecomputed)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok);

    // Chop the final record off mid-line: a crash between write(2)
    // and completion.
    std::string text = slurp(path);
    spill(path, text.substr(0, text.size() - 7));

    sweep::Table t2{abSchema()};
    size_t calls = 0;
    ASSERT_EQ(run(&t2, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(st.fromJournal, 5u);
    EXPECT_EQ(st.computed, 1u);
    EXPECT_EQ(calls, 1u);
    EXPECT_GT(st.journalTruncatedBytes, 0u);
    EXPECT_EQ(t1.csv(), t2.csv());
}

TEST_F(JournalTest, BitFlippedTailRecordIsTruncatedAndRecomputed)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok);

    std::string text = slurp(path);
    // Flip a digit inside the last record's cells; CRC must catch it.
    size_t lastLine = text.rfind('\n', text.size() - 2) + 1;
    size_t cells = text.find("\"cells\":[", lastLine);
    ASSERT_NE(cells, std::string::npos);
    text[cells + 9] = text[cells + 9] == '1' ? '2' : '1';
    spill(path, text);

    sweep::Table t2{abSchema()};
    ASSERT_EQ(run(&t2, &st, &err), sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(st.fromJournal, 5u);
    EXPECT_EQ(st.computed, 1u);
    EXPECT_EQ(t1.csv(), t2.csv());
}

TEST_F(JournalTest, BitFlipBeforeValidRecordsRefusesAsCorrupt)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok);

    // Damage the *second* line (first record) — valid records follow,
    // so this is not a torn tail and must refuse.
    std::string text = slurp(path);
    size_t rec0 = text.find('\n') + 1;
    size_t cells = text.find("\"cells\":[", rec0);
    ASSERT_NE(cells, std::string::npos);
    text[cells + 9] = text[cells + 9] == '1' ? '2' : '1';
    spill(path, text);

    sweep::Table t2{abSchema()};
    EXPECT_EQ(run(&t2, &st, &err),
              sweep::JournalStatus::Corrupt);
    EXPECT_NE(err.find("valid data after"), std::string::npos) << err;
}

TEST_F(JournalTest, DifferentGridRefusesAsHeaderMismatch)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok);

    sweep::Grid other;
    other.axis("a", {1, 2, 3}).axis("b", {5, 6, 7}); // b grew
    sweep::Table t2{abSchema()};
    EXPECT_EQ(run(&t2, &st, &err, nullptr, &other),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_NE(err.find("grid_hash"), std::string::npos) << err;
}

/** There is no fresh-journal mode: a journal path that holds another
 *  grid's journal is refused before any point runs, and the file
 *  keeps every byte. */
TEST_F(JournalTest, AnotherGridsJournalIsRefusedAndKeepsItsBytes)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok) << err;
    const std::string before = slurp(path);

    sweep::Grid other;
    other.axis("a", {1, 2}).axis("b", {5});
    sweep::Table t2{abSchema()};
    size_t calls = 0;
    EXPECT_EQ(run(&t2, &st, &err, &calls, &other),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(slurp(path), before);
}

TEST_F(JournalTest, DifferentSaltRefusesAsHeaderMismatch)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok);

    sweep::Table t2{abSchema()};
    EXPECT_EQ(run(&t2, &st, &err, nullptr, nullptr,
                  "another model"),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_NE(err.find("salt"), std::string::npos) << err;
}

/** Journals written while an unfused compiled mode existed carry a
 *  "fuse" header field. "fuse":"off" names that removed mode: resuming
 *  such a journal must refuse as a header mismatch, never merge. A
 *  legacy "fuse":"on" header is the current engine and resumes. */
TEST_F(JournalTest, LegacyUnfusedHeaderRefusesAsHeaderMismatch)
{
    engine.backend = sim::Backend::Compiled;
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok);
    const std::string original = slurp(path);
    auto withFuse = [&](const std::string &mode) {
        std::string text = original;
        size_t at = text.find(",\"salt\":");
        EXPECT_LT(at, text.find('\n'));
        return text.insert(at, ",\"fuse\":\"" + mode + "\"");
    };

    spill(path, withFuse("off"));
    sweep::Table t2{abSchema()};
    size_t calls = 0;
    EXPECT_EQ(run(&t2, &st, &err, &calls),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_NE(err.find("backend"), std::string::npos) << err;
    EXPECT_EQ(calls, 0u);

    spill(path, withFuse("on"));
    sweep::Table t3{abSchema()};
    ASSERT_EQ(run(&t3, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(t1.csv(), t3.csv());
}

TEST_F(JournalTest, DuplicateRecordsResolveLastWriteWins)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(&t1, &st, &err), sweep::JournalStatus::Ok);

    // Forge a well-formed duplicate for point 0 carrying different
    // cells; appended later, it must win the replay.
    std::string text = slurp(path);
    text += sealedRecord(0, "a=1,b=5", {int64_t(1), int64_t(5),
                                        int64_t(999)});
    spill(path, text);

    sweep::Table t2{abSchema()};
    size_t calls = 0;
    ASSERT_EQ(run(&t2, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(st.fromJournal, 6u);
    EXPECT_EQ(t2.at(0, 2).asInt(), 999);
}

TEST_F(JournalTest, HeaderlessFileIsRecreatedFresh)
{
    // A crash during create(): some bytes, no newline — records
    // cannot exist yet, so resume starts the journal over.
    spill(path, "{\"journal\":\"eqsw");

    sweep::Table t{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    size_t calls = 0;
    ASSERT_EQ(run(&t, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 6u);
    EXPECT_EQ(st.fromJournal, 0u);

    // And the recreated journal resumes normally afterwards.
    sweep::Table t2{abSchema()};
    calls = 0;
    ASSERT_EQ(run(&t2, &st, &err, &calls),
              sweep::JournalStatus::Ok);
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(t.csv(), t2.csv());
}

TEST_F(JournalTest, UnreadableHeaderLineRefusesAsCorrupt)
{
    spill(path, "not json at all\n" +
                    sealedRecord(0, "a=1,b=5",
                                 {int64_t(1), int64_t(5), int64_t(5)}));
    sweep::Table t{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    EXPECT_EQ(run(&t, &st, &err), sweep::JournalStatus::Corrupt);
    EXPECT_NE(err.find("header"), std::string::npos) << err;
}

/** A journal that stops taking rows (a full disk) fails the sweep
 *  without simulating the rest of the grid: each worker runs at most
 *  the point it already had in hand. */
TEST_F(JournalTest, FailedAppendStopsSimulating)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    sweep::Grid grid;
    grid.axis("a", {1, 2, 3, 4, 5, 6, 7, 8}).axis("b", {5, 6, 7, 8});
    const auto points = grid.points();
    const unsigned threads = 2;
    const sweep::RowLogHeader identity =
        sweep::gridIdentity(points, abSchema(), "", engine);
    EXPECT_EXIT(
        {
            // Room for the header line and not one byte of a record;
            // writes past the limit fail with EFBIG, not a signal.
            std::signal(SIGXFSZ, SIG_IGN);
            rlimit lim;
            ::getrlimit(RLIMIT_FSIZE, &lim);
            lim.rlim_cur = identity.toJson().dump().size() + 1;
            ::setrlimit(RLIMIT_FSIZE, &lim);

            std::atomic<size_t> calls{0};
            sweep::JournalOptions opts;
            opts.journalPath = path;
            sweep::SweepRunner runner({threads});
            sweep::Table t{abSchema()};
            std::string err;
            const sweep::JournalStatus status = runJournaledSweep(
                runner, points, abSchema(), abKey,
                [&](const sweep::Point &p, unsigned) {
                    ++calls;
                    return abRow(p);
                },
                opts, identity, &t, nullptr, &err);
            std::fprintf(stderr, "status=%s calls=%zu\n",
                         sweep::journalStatusName(status), calls.load());
            std::exit(status == sweep::JournalStatus::IoError &&
                              calls.load() <= threads
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0), "status=io_error");
}

/** A point that throws fails the sweep with its index; the rows
 *  journaled before it survive, so a rerun replays exactly the points
 *  before it and computes the rest. */
TEST_F(JournalTest, ThrowingPointLeavesEarlierRowsToResume)
{
    const size_t k = 3;
    const sweep::Grid grid = abGrid();
    const auto points = grid.points();
    const sweep::RowLogHeader identity =
        sweep::gridIdentity(points, abSchema(), "", engine);
    sweep::JournalOptions opts;
    opts.journalPath = path;
    sweep::Table t{abSchema()};
    std::string err;
    try {
        runJournaledSweep(
            sweep::SweepRunner({1}), points, abSchema(), abKey,
            [&](const sweep::Point &p, unsigned) {
                if (p.index() == k)
                    throw std::runtime_error("boom");
                return abRow(p);
            },
            opts, identity, &t, nullptr, &err);
        FAIL() << "the throwing point did not fail the sweep";
    } catch (const sweep::PointFailed &e) {
        EXPECT_EQ(e.point(), k);
        EXPECT_STREQ(e.what(), "point 3: boom");
    }

    sweep::RowLog::Recovery rec = sweep::RowLog::recover(
        path, identity, abSchema(), sweep::RowLog::Policy::Refuse);
    ASSERT_EQ(rec.status, sweep::JournalStatus::Ok) << rec.error;
    std::vector<size_t> journaled;
    for (const sweep::RowRecord &r : rec.records)
        journaled.push_back(r.index);
    EXPECT_EQ(journaled, (std::vector<size_t>{0, 1, 2}));

    sweep::ResumeStats st;
    size_t calls = 0;
    ASSERT_EQ(run(&t, &st, &err, &calls), sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(st.fromJournal, k);
    EXPECT_EQ(calls, points.size() - k);
    sweep::Table fresh{abSchema()};
    std::remove(path.c_str());
    ASSERT_EQ(run(&fresh, &st, &err), sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(t.csv(), fresh.csv());
}

TEST_F(JournalTest, ExitCodesAreStable)
{
    EXPECT_EQ(sweep::exitCodeFor(sweep::JournalStatus::Ok), 0);
    EXPECT_EQ(sweep::exitCodeFor(sweep::JournalStatus::IoError), 1);
    EXPECT_EQ(sweep::exitCodeFor(sweep::JournalStatus::HeaderMismatch),
              3);
    EXPECT_EQ(sweep::exitCodeFor(sweep::JournalStatus::Corrupt), 4);
}

TEST_F(JournalTest, StatusNamesAreStable)
{
    EXPECT_STREQ(sweep::journalStatusName(sweep::JournalStatus::Ok),
                 "ok");
    EXPECT_STREQ(
        sweep::journalStatusName(sweep::JournalStatus::IoError),
        "io_error");
    EXPECT_STREQ(
        sweep::journalStatusName(sweep::JournalStatus::HeaderMismatch),
        "journal_header_mismatch");
    EXPECT_STREQ(
        sweep::journalStatusName(sweep::JournalStatus::Corrupt),
        "journal_corrupt");
}

TEST(ShardStripeTest, StripesCoverEveryPointOnceInOrder)
{
    for (uint64_t points : {1u, 4u, 7u, 16u}) {
        for (uint64_t n : {1u, 2u, 3u, 4u, 32u}) {
            SCOPED_TRACE(std::to_string(points) + " points, " +
                         std::to_string(n) + " stripes");
            uint64_t next = 0;
            for (uint64_t k = 0; k < n; ++k) {
                const auto [begin, end] =
                    sweep::shardStripe(points, k, n);
                EXPECT_EQ(begin, next);
                EXPECT_LE(begin, end);
                // Balanced: stripes differ by at most one point, and
                // only stripes past the point count are empty.
                EXPECT_LE(end - begin, (points + n - 1) / n);
                EXPECT_EQ(end == begin, k >= points);
                next = end;
            }
            EXPECT_EQ(next, points);
        }
    }
}

class ShardMergeTest : public JournalTest {
  protected:
    /** A merge header over @p num_points points of abSchema(). */
    static sweep::RowLogHeader
    header(uint64_t num_points)
    {
        sweep::RowLogHeader h;
        h.gridHash = 0xfeedu;
        h.numPoints = num_points;
        h.schemaSig = sweep::schemaSignature(abSchema());
        h.backend = "interp";
        h.salt = "ab";
        return h;
    }

    /** A journal at @p at holding rows (a, 1, a) for the given
     *  indices. */
    static void
    write(const std::string &at, const sweep::RowLogHeader &h,
          const std::vector<std::pair<size_t, int64_t>> &rows)
    {
        sweep::RowLog j(sweep::RowLog::Policy::Refuse);
        sweep::RowLog::Recovery rec;
        ASSERT_EQ(j.open(at, h, abSchema(), &rec),
                  sweep::JournalStatus::Ok)
            << rec.error;
        std::string err;
        for (const auto &[index, a] : rows)
            ASSERT_TRUE(j.append(index, "a=" + std::to_string(a),
                                 {a, int64_t{1}, a}, &err))
                << err;
    }
};

TEST_F(ShardMergeTest, MissingPointsAreReportedNotInvented)
{
    sweep::RowLogHeader h = header(5);
    const std::string j0 = sibling("s0");
    write(j0, h, {{0, 10}, {1, 11}, {3, 13}});

    sweep::Table table{abSchema()};
    std::vector<uint64_t> missing;
    std::string err;
    ASSERT_EQ(sweep::mergeShardJournals({j0}, h, abSchema(), &table,
                                        &missing, &err),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(missing, (std::vector<uint64_t>{2, 4}));
    EXPECT_EQ(table.numRows(), 3u);
}

TEST_F(ShardMergeTest, MismatchedJournalHeaderRefuses)
{
    sweep::RowLogHeader h = header(4);
    const std::string j0 = sibling("s0");
    const std::string j1 = sibling("s1");
    write(j0, h, {{0, 10}, {1, 11}});
    sweep::RowLogHeader other = h;
    other.backend = "compiled";
    write(j1, other, {{2, 12}, {3, 13}});

    sweep::Table table{abSchema()};
    std::vector<uint64_t> missing;
    std::string err;
    EXPECT_EQ(sweep::mergeShardJournals({j0, j1}, h, abSchema(),
                                        &table, &missing, &err),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_NE(err.find("backend"), std::string::npos) << err;
}

TEST_F(ShardMergeTest, DuplicatePointsResolveLastWriteWins)
{
    // A relaunched shard recomputed point 1, which another journal
    // also holds: the later path wins.
    sweep::RowLogHeader h = header(3);
    const std::string j0 = sibling("s0");
    const std::string j1 = sibling("s1");
    write(j0, h, {{0, 10}, {1, 11}});
    write(j1, h, {{1, 99}, {2, 12}});

    sweep::Table table{abSchema()};
    std::vector<uint64_t> missing;
    std::string err;
    ASSERT_EQ(sweep::mergeShardJournals({j0, j1}, h, abSchema(),
                                        &table, &missing, &err),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_TRUE(missing.empty());
    ASSERT_EQ(table.numRows(), 3u);
    EXPECT_EQ(table.at(1, 0).asInt(), 99);
}

/** 1/2/4-stripe journals of a real systolic sweep merge
 *  byte-identically to the single-process SweepRunner CSV — on both
 *  backends. */
TEST_F(ShardMergeTest, MergeMatchesSingleProcessInEveryBackendMode)
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes = {{"ah", {2, 4}}, {"aw", {2, 4}}};
    std::string err;
    ASSERT_TRUE(spec.validate(&err)) << err;

    for (sim::Backend backend :
         {sim::Backend::Interp, sim::Backend::Compiled}) {
        sim::EngineOptions mode;
        mode.backend = backend;
        SCOPED_TRACE(sim::backendName(backend));
        const std::string single =
            serve::runLocalSweep(spec, 1, mode).csv();

        const sweep::Grid grid = spec.grid();
        const sweep::RowLogHeader identity =
            serve::sweepIdentity(spec, grid, {}, mode);

        for (uint64_t n : {1u, 2u, 4u}) {
            SCOPED_TRACE(n);
            std::vector<std::string> journals;
            for (uint64_t k = 0; k < n; ++k) {
                sweep::SweepFlags flags;
                flags.threads = 1;
                flags.engine = mode;
                flags.durability.journalPath = sibling(
                    std::string(sim::backendName(backend)) + "_" +
                    std::to_string(n) + "_" + std::to_string(k));
                sweep::Table part{spec.schema()};
                ASSERT_EQ(serve::runLocalSweepDurable(
                              spec, grid, flags, {}, &part, nullptr,
                              &err, {k, n}),
                          sweep::JournalStatus::Ok)
                    << err;
                journals.push_back(flags.durability.journalPath);
            }

            sweep::Table merged{spec.schema()};
            std::vector<uint64_t> missing;
            ASSERT_EQ(sweep::mergeShardJournals(journals, identity,
                                                spec.schema(),
                                                &merged, &missing,
                                                &err),
                      sweep::JournalStatus::Ok)
                << err;
            EXPECT_TRUE(missing.empty());
            EXPECT_EQ(merged.csv(), single)
                << "merge must be byte-identical to one process";
        }
    }
}

} // namespace
