/**
 * @file
 * The sweep front end that eqsweep and the bench harnesses share: one
 * flag parser (sweep::SweepFlags), one exit contract
 * (sweep::runSweepCommand, which bench::runSweep ends the process
 * with) and one driver (serve::runLocalSweepDurable), which keys a
 * harness's journal and cache rows on the configs it runs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

using namespace eq;
using Parse = sweep::SweepFlags::Parse;

std::vector<sweep::Column>
squareSchema()
{
    return {{"a", sweep::ValueKind::Int, 4, 0},
            {"sq", sweep::ValueKind::Int, 6, 0}};
}

std::vector<sweep::Cell>
squareRow(const sweep::Point &p, unsigned)
{
    const int64_t a = p.at("a");
    return {a, a * a};
}

/** Parse @p words (argv[0] included) with SweepFlags; returns each
 *  flag's outcome in order. */
std::vector<Parse>
parseAll(sweep::SweepFlags *flags, std::vector<std::string> words)
{
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    std::vector<Parse> out;
    for (int i = 1; i < int(argv.size()); ++i)
        out.push_back(
            flags->parse("tool", int(argv.size()), argv.data(), &i));
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(SweepCli, SharedFlagsAreParsedOnce)
{
    sweep::SweepFlags flags;
    EXPECT_EQ(parseAll(&flags, {"tool", "--threads", "3", "--backend",
                                "interp", "--journal", "j", "--cache",
                                "c", "--fsync", "--csv", "t.csv",
                                "--no-wall"}),
              (std::vector<Parse>{Parse::Taken, Parse::Taken,
                                  Parse::Taken, Parse::Taken,
                                  Parse::Taken, Parse::Taken,
                                  Parse::NotShared}));
    EXPECT_EQ(flags.threads, 3u);
    EXPECT_EQ(flags.engine.backend, sim::Backend::Interp);
    EXPECT_EQ(flags.durability.journalPath, "j");
    EXPECT_EQ(flags.durability.cachePath, "c");
    EXPECT_TRUE(flags.durability.fsyncEachRecord);
    EXPECT_EQ(flags.csvPath, "t.csv");
}

TEST(SweepCli, BadValuesAreUsageErrors)
{
    for (const std::vector<std::string> &words :
         std::vector<std::vector<std::string>>{
             {"tool", "--threads", "0"},
             {"tool", "--threads", "2x"},
             {"tool", "--backend", "fused"},
             {"tool", "--journal"}}) {
        sweep::SweepFlags flags;
        EXPECT_EQ(parseAll(&flags, words).front(), Parse::Bad)
            << words[1];
    }
}

/** There is no fresh-journal mode: a journal of another sweep is
 *  refused with exit 3 and keeps its bytes, and rerunning the same
 *  command replays its own journal without computing a point. */
TEST(SweepCli, JournalIsAlwaysRecovered)
{
    const std::string path = ::testing::TempDir() + "eq_cli_journal.ndjson";
    std::remove(path.c_str());
    sweep::Grid small, large;
    small.axis("a", {1, 2, 3});
    large.axis("a", {1, 2, 3, 4});
    sweep::JournalOptions opts;
    opts.journalPath = path;
    const sweep::SweepRunner runner({1});
    size_t calls = 0;
    auto run = [&](const sweep::Grid &grid, sweep::Table *out) {
        const auto points = grid.points();
        return sweep::runSweepCommand(
            "tool", opts, [&](sweep::ResumeStats *st, std::string *err) {
                return sweep::runJournaledSweep(
                    runner, points, squareSchema(),
                    [](const sweep::Point &p) {
                        return std::to_string(p.at("a"));
                    },
                    [&](const sweep::Point &p, unsigned w) {
                        ++calls;
                        return squareRow(p, w);
                    },
                    opts,
                    sweep::gridIdentity(points, squareSchema(), "cli", {}),
                    out, st, err);
            });
    };

    sweep::Table first{squareSchema()};
    ASSERT_EQ(run(small, &first), 0);
    EXPECT_EQ(calls, 3u);
    const std::string before = slurp(path);

    sweep::Table other{squareSchema()};
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run(large, &other), 3);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "journal_header_mismatch"),
              std::string::npos);
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(slurp(path), before);

    sweep::Table again{squareSchema()};
    ::testing::internal::CaptureStderr();
    ASSERT_EQ(run(small, &again), 0);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "# resume: computed=0 journal=3 "),
              std::string::npos);
    EXPECT_EQ(again.csv(), first.csv());
    std::remove(path.c_str());
}

/** A harness point that throws ends the process like eqsweep's:
 *  exit 6 with a point_failed line, never std::terminate. */
TEST(SweepCli, ThrowingHarnessPointExitsSix)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    serve::SweepSpec spec;
    spec.axes = {{"ah", {1, 2, 3}}};
    bench::HarnessArgs args;
    args.program = "harness";
    args.flags.threads = 2;
    EXPECT_EXIT(bench::runSweep(args, spec, spec.grid(),
                                squareSchema(),
                                [](const sweep::Point &p,
                                   serve::ProgramCache::Handle &)
                                    -> std::vector<sweep::Cell> {
                                    const int64_t a = p.at("ah");
                                    if (a == 2)
                                        throw std::runtime_error("boom");
                                    return {a, a * a};
                                }),
                ::testing::ExitedWithCode(sweep::kExitPointFailed),
                "harness: error: .*point_failed.*point 1: boom");
}

/** Two harness sweeps that differ only in their fixed base config
 *  (fig9 ifmap's C = 3, then C = 4) under one tag, axes and schema:
 *  the second never replays the first's rows. Over one cache file it
 *  computes every point into a fresh run's table; over one journal it
 *  is refused with exit 3 and the journal keeps its bytes. */
TEST(SweepCli, HarnessRowsAreKeyedOnTheConfigTheyRun)
{
    auto run = [](const bench::HarnessArgs &args, int channels) {
        serve::SweepSpec spec;
        scalesim::Config &base = spec.base.systolic;
        base.ah = base.aw = 4;
        base.c = channels;
        base.n = 1;
        base.fh = base.fw = 2;
        spec.axes = {{"hw", {2, 4}}};
        return bench::runSweep(
            args, spec, spec.grid(),
            {{"hw", sweep::ValueKind::Int, 4, 0},
             {"cycles", sweep::ValueKind::Int, 8, 0}},
            [](const sweep::Point &p, serve::ProgramCache::Handle &handle)
                -> std::vector<sweep::Cell> {
                return {p.at("hw"), int64_t(handle.run().cycles)};
            });
    };
    bench::HarnessArgs fresh;
    fresh.program = "harness";
    const std::string c3 = run(fresh, 3).csv();
    const std::string c4 = run(fresh, 4).csv();
    ASSERT_NE(c3, c4);

    bench::HarnessArgs cached = fresh;
    cached.flags.durability.cachePath =
        ::testing::TempDir() + "eq_cli_harness_cache.ndjson";
    std::remove(cached.flags.durability.cachePath.c_str());
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run(cached, 3).csv(), c3);
    ::testing::internal::GetCapturedStderr();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run(cached, 4).csv(), c4);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "# resume: computed=2 journal=0 cache=0 "),
              std::string::npos);
    std::remove(cached.flags.durability.cachePath.c_str());

    bench::HarnessArgs journaled = fresh;
    const std::string path =
        ::testing::TempDir() + "eq_cli_harness_journal.ndjson";
    journaled.flags.durability.journalPath = path;
    std::remove(path.c_str());
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run(journaled, 3).csv(), c3);
    ::testing::internal::GetCapturedStderr();
    const std::string before = slurp(path);
    // Forked at the statement: the child runs only the C = 4 sweep.
    ::testing::GTEST_FLAG(death_test_style) = "fast";
    EXPECT_EXIT(run(journaled, 4), ::testing::ExitedWithCode(3),
                "harness: error: .*journal_header_mismatch");
    EXPECT_EQ(slurp(path), before);
    std::remove(path.c_str());
}

/** Two harness sweeps that differ only in their key function (fig12's
 *  rule Aw = 64/Ah, then Aw = 32/Ah) under one tag, spec and schema:
 *  the journal salt covers the configs the key function resolves, so
 *  the second run is refused with exit 3 and the journal keeps its
 *  bytes instead of replaying rows of other arrays. */
TEST(SweepCli, JournalSaltCoversTheKeyFunction)
{
    auto run = [](const bench::HarnessArgs &args, int pes) {
        serve::SweepSpec spec;
        spec.axes = {{"ah", {2, 4}}};
        return bench::runSweep(
            args, spec, spec.grid(),
            {{"ah", sweep::ValueKind::Int, 4, 0},
             {"cycles", sweep::ValueKind::Int, 8, 0}},
            [](const sweep::Point &p, serve::ProgramCache::Handle &handle)
                -> std::vector<sweep::Cell> {
                return {p.at("ah"), int64_t(handle.run().cycles)};
            },
            [spec, pes](const sweep::Point &p) {
                serve::ModelKey key = spec.keyAt(p);
                key.systolic.aw = pes / key.systolic.ah;
                return key;
            });
    };
    bench::HarnessArgs journaled;
    journaled.program = "harness";
    const std::string path =
        ::testing::TempDir() + "eq_cli_key_rule_journal.ndjson";
    journaled.flags.durability.journalPath = path;
    std::remove(path.c_str());
    ::testing::internal::CaptureStderr();
    run(journaled, 64);
    ::testing::internal::GetCapturedStderr();
    const std::string before = slurp(path);
    ASSERT_FALSE(before.empty());
    ::testing::GTEST_FLAG(death_test_style) = "fast";
    EXPECT_EXIT(run(journaled, 32), ::testing::ExitedWithCode(3),
                "harness: error: .*journal_header_mismatch");
    EXPECT_EQ(slurp(path), before);
    std::remove(path.c_str());
}

} // namespace
