/**
 * @file
 * Shard dispatch semantics: manifests partition the grid exactly and
 * round-trip through disk; heartbeats are atomic and monotone; and the
 * merge contract — shard journals merged by dense point index are
 * byte-identical to the single-process SweepRunner table, in every
 * backend mode, with duplicates resolving last-write-wins and missing
 * points reported rather than papered over.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "base/fsutil.hh"
#include "serve/models.hh"
#include "sweep/shard.hh"

namespace {

using namespace eq;
using sweep::Cell;
using sweep::Column;
using sweep::ValueKind;

std::vector<Column>
abSchema()
{
    return {{"a", ValueKind::Int, 0, 0},
            {"sq", ValueKind::Int, 0, 0}};
}

sweep::RowLogHeader
abHeader(uint64_t num_points)
{
    sweep::RowLogHeader h;
    h.gridHash = 0xfeedu;
    h.numPoints = num_points;
    h.schemaSig = sweep::schemaSignature(abSchema());
    h.backend = "interp";
    h.salt = "ab";
    return h;
}

/** A journal at @p path holding rows a -> a*a for the given indices. */
void
writeAbJournal(const std::string &path, const sweep::RowLogHeader &h,
               const std::vector<std::pair<size_t, int64_t>> &rows)
{
    sweep::RowLog j(sweep::RowLog::Policy::Refuse);
    sweep::RowLog::Recovery rec;
    ASSERT_EQ(j.open(path, h, abSchema(), /*resume=*/false, &rec),
              sweep::JournalStatus::Ok)
        << rec.error;
    std::string err;
    for (const auto &[index, a] : rows)
        ASSERT_TRUE(j.append(index, "a=" + std::to_string(a),
                             {a, a * a}, &err))
            << err;
}

std::string
tempPath(const std::string &leaf)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path = ::testing::TempDir() + "eq_shard_" +
                       std::string(info->name()) + "_" + leaf;
    std::remove(path.c_str());
    return path;
}

TEST(ShardManifestTest, RoundTripsThroughDisk)
{
    sweep::ShardManifest m;
    m.shard = 2;
    m.numShards = 4;
    m.beginPoint = 10;
    m.endPoint = 15;
    m.header = abHeader(20);
    m.specPath = "/tmp/spec.json";
    m.journalPath = "/tmp/shard-2.journal.ndjson";
    m.heartbeatPath = "/tmp/shard-2.heartbeat.json";

    const std::string path = tempPath("manifest.json");
    std::string err;
    ASSERT_TRUE(m.save(path, &err)) << err;

    sweep::ShardManifest back;
    ASSERT_TRUE(sweep::ShardManifest::load(path, &back, &err)) << err;
    EXPECT_EQ(back.shard, 2);
    EXPECT_EQ(back.numShards, 4);
    EXPECT_EQ(back.beginPoint, 10u);
    EXPECT_EQ(back.endPoint, 15u);
    EXPECT_EQ(back.specPath, m.specPath);
    EXPECT_EQ(back.journalPath, m.journalPath);
    EXPECT_EQ(back.heartbeatPath, m.heartbeatPath);
    std::string why;
    EXPECT_TRUE(back.header.matches(m.header, &why)) << why;
}

/** The saved manifest, its "header" member included: manifests emitted
 *  by earlier releases load and match only while these bytes hold. */
TEST(ShardManifestTest, SavedBytesArePinned)
{
    sweep::ShardManifest m;
    m.shard = 1;
    m.numShards = 2;
    m.beginPoint = 2;
    m.endPoint = 3;
    m.header = abHeader(3);
    m.specPath = "d/spec.json";
    m.journalPath = "d/shard-1.journal.ndjson";
    m.heartbeatPath = "d/shard-1.heartbeat.json";

    const std::string path = tempPath("manifest.json");
    std::string err, text;
    ASSERT_TRUE(m.save(path, &err)) << err;
    ASSERT_TRUE(fs::readFile(path, &text, &err)) << err;
    EXPECT_EQ(text,
              "{\"manifest\":\"eqsweep-shard\",\"shard\":1,"
              "\"num_shards\":2,\"begin\":2,\"end\":3,"
              "\"header\":{\"journal\":\"eqsweep\",\"version\":1,"
              "\"grid_hash\":\"000000000000feed\",\"points\":3,"
              "\"schema\":\"a:i;sq:i\",\"backend\":\"interp\","
              "\"salt\":\"ab\"},"
              "\"spec\":\"d/spec.json\","
              "\"journal\":\"d/shard-1.journal.ndjson\","
              "\"heartbeat\":\"d/shard-1.heartbeat.json\"}\n");
}

TEST(ShardManifestTest, RangeBeyondGridRefusesToLoad)
{
    sweep::ShardManifest m;
    m.shard = 0;
    m.numShards = 1;
    m.beginPoint = 0;
    m.endPoint = 25; // grid only has 20
    m.header = abHeader(20);
    const std::string path = tempPath("manifest.json");
    std::string err;
    ASSERT_TRUE(m.save(path, &err)) << err;
    sweep::ShardManifest back;
    EXPECT_FALSE(sweep::ShardManifest::load(path, &back, &err));
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

/** A manifest written while an unfused compiled mode existed, with
 *  "fuse":"off" in its header, names a mode no current engine runs: it
 *  loads, but its header matches no current sweep's, so eqsweep
 *  --shard refuses it as journal_header_mismatch. */
TEST(ShardManifestTest, LegacyUnfusedHeaderMatchesNoCurrentSweep)
{
    sweep::ShardManifest m;
    m.shard = 0;
    m.numShards = 1;
    m.beginPoint = 0;
    m.endPoint = 4;
    m.header = abHeader(4);
    m.header.backend = "compiled";
    serve::Json header = m.header.toJson();
    header.set("fuse", "off");
    serve::Json legacy = m.toJson();
    legacy.set("header", header);

    sweep::ShardManifest back;
    std::string err;
    ASSERT_TRUE(sweep::ShardManifest::fromJson(legacy, &back, &err))
        << err;
    std::string why;
    EXPECT_FALSE(back.header.matches(m.header, &why));
    EXPECT_NE(why.find("backend"), std::string::npos) << why;
}

TEST(ShardManifestTest, ManifestsPartitionTheGridExactly)
{
    for (uint64_t points : {1u, 4u, 7u, 16u}) {
        for (int shards : {1, 2, 3, 4, 32}) {
            auto ms = sweep::makeShardManifests(points, shards,
                                                abHeader(points), "d");
            ASSERT_FALSE(ms.empty());
            EXPECT_LE(ms.size(), size_t(points));
            uint64_t expect = 0;
            for (const auto &m : ms) {
                EXPECT_EQ(m.beginPoint, expect);
                EXPECT_GT(m.endPoint, m.beginPoint);
                expect = m.endPoint;
                EXPECT_EQ(m.numShards, int(ms.size()));
            }
            EXPECT_EQ(expect, points);
        }
    }
}

TEST(HeartbeatTest, BeatsAreAtomicAndMonotone)
{
    const std::string path = tempPath("heartbeat.json");
    sweep::Heartbeat hb(path, 3);
    std::string err;
    ASSERT_TRUE(hb.beat(0, &err)) << err;
    ASSERT_TRUE(hb.beat(5, &err)) << err;

    sweep::Heartbeat::State state;
    ASSERT_TRUE(sweep::Heartbeat::load(path, &state, &err)) << err;
    EXPECT_EQ(state.shard, 3);
    EXPECT_EQ(state.beat, 2u);
    EXPECT_EQ(state.completed, 5u);
}

TEST(ShardMergeTest, MissingPointsAreReportedNotInvented)
{
    sweep::RowLogHeader h = abHeader(5);
    const std::string j0 = tempPath("s0.ndjson");
    writeAbJournal(j0, h, {{0, 10}, {1, 11}, {3, 13}});

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

TEST(ShardMergeTest, MismatchedJournalHeaderRefuses)
{
    sweep::RowLogHeader h = abHeader(4);
    const std::string j0 = tempPath("s0.ndjson");
    const std::string j1 = tempPath("s1.ndjson");
    writeAbJournal(j0, h, {{0, 10}, {1, 11}});
    sweep::RowLogHeader other = h;
    other.backend = "compiled";
    writeAbJournal(j1, other, {{2, 12}, {3, 13}});

    sweep::Table table{abSchema()};
    std::vector<uint64_t> missing;
    std::string err;
    EXPECT_EQ(sweep::mergeShardJournals({j0, j1}, h, abSchema(),
                                        &table, &missing, &err),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_NE(err.find("backend"), std::string::npos) << err;
}

TEST(ShardMergeTest, DuplicatePointsResolveLastWriteWins)
{
    // Shard 1 recomputed point 1 after shard 0's range was reassigned
    // to it mid-dispatch: both journals hold index 1; the later path
    // wins.
    sweep::RowLogHeader h = abHeader(3);
    const std::string j0 = tempPath("s0.ndjson");
    const std::string j1 = tempPath("s1.ndjson");
    writeAbJournal(j0, h, {{0, 10}, {1, 11}});
    writeAbJournal(j1, h, {{1, 99}, {2, 12}});

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

/** The merge-determinism satellite: 1/2/4-shard journals of a real
 *  systolic sweep merge byte-identically to the single-process
 *  SweepRunner CSV — on both backends. */
TEST(ShardMergeTest, MergeMatchesSingleProcessInEveryBackendMode)
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes = {{"ah", {2, 4}}, {"aw", {2, 4}}};
    std::string err;
    ASSERT_TRUE(spec.validate(&err)) << err;

    struct Mode {
        const char *name;
        sim::EngineOptions engine;
    };
    std::vector<Mode> modes;
    modes.push_back({"interp", {}});
    modes.back().engine.backend = sim::Backend::Interp;
    modes.push_back({"compiled", {}});
    modes.back().engine.backend = sim::Backend::Compiled;

    for (const Mode &mode : modes) {
        SCOPED_TRACE(mode.name);
        const std::string single =
            serve::runLocalSweep(spec, 1, mode.engine).csv();

        sweep::Grid grid = spec.grid();
        std::vector<sweep::Point> points = grid.points();
        const sweep::RowLogHeader header = sweep::gridIdentity(
            points, spec.schema(), spec.saltString(), mode.engine);

        for (int nshards : {1, 2, 4}) {
            SCOPED_TRACE(nshards);
            auto manifests = sweep::makeShardManifests(
                points.size(), nshards, header,
                ::testing::TempDir());
            std::vector<std::string> journals;
            for (auto &m : manifests) {
                // Unique-ify per mode/shard-count (makeShardManifests
                // names by shard id only).
                m.journalPath = ::testing::TempDir() +
                                "eq_merge_" + mode.name + "_" +
                                std::to_string(nshards) + "_" +
                                std::to_string(m.shard) + ".ndjson";
                std::remove(m.journalPath.c_str());
                std::vector<sweep::Point> slice(
                    points.begin() + ptrdiff_t(m.beginPoint),
                    points.begin() + ptrdiff_t(m.endPoint));
                sweep::JournalOptions opts;
                opts.journalPath = m.journalPath;
                opts.resume = true;
                sweep::Table part{spec.schema()};
                sweep::ResumeStats st;
                ASSERT_EQ(serve::runLocalSweepDurable(
                              spec, slice, 1, mode.engine, opts, header,
                              &part, &st, &err),
                          sweep::JournalStatus::Ok)
                    << err;
                journals.push_back(m.journalPath);
            }

            sweep::Table merged{spec.schema()};
            std::vector<uint64_t> missing;
            ASSERT_EQ(sweep::mergeShardJournals(journals, header,
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
