/**
 * @file
 * The failure table: every code's wire name, retryability and exit
 * code are a contract with clients and scripts, so each row
 * is pinned to its literals here. Names round-trip through
 * errorCodeFromName except the two that never cross the wire, and
 * Error carries the code it was thrown with.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "base/failure.hh"

namespace {

using eq::ErrorCode;

struct Pinned {
    ErrorCode code;
    const char *name;
    bool retryable;
    int exitCode;
};

const Pinned kPinned[] = {
    {ErrorCode::Ok, "ok", false, 0},
    {ErrorCode::MalformedRequest, "malformed_request", false, 1},
    {ErrorCode::FrameTooLarge, "frame_too_large", false, 1},
    {ErrorCode::BadRequest, "bad_request", false, 1},
    {ErrorCode::Backpressure, "backpressure", true, 1},
    {ErrorCode::DeadlineExceeded, "deadline_exceeded", false, 1},
    {ErrorCode::Cancelled, "cancelled", false, 1},
    {ErrorCode::BuildFailed, "build_failed", true, 1},
    {ErrorCode::Internal, "internal", true, 1},
    {ErrorCode::ShuttingDown, "shutting_down", false, 1},
    {ErrorCode::ResourceExhausted, "resource_exhausted", false, 1},
    {ErrorCode::Deadlock, "deadlock", false, 1},
    {ErrorCode::SimulationFailed, "simulation_failed", false, 1},
    {ErrorCode::IoError, "io_error", true, 1},
    {ErrorCode::Usage, "usage", false, 2},
    {ErrorCode::JournalHeaderMismatch, "journal_header_mismatch", false, 3},
    {ErrorCode::JournalCorrupt, "journal_corrupt", false, 4},
    {ErrorCode::PointFailed, "point_failed", false, 6},
    {ErrorCode::Unknown, "unknown", false, 1},
};

TEST(FailureTable, EveryRowIsPinned)
{
    ASSERT_EQ(std::size(kPinned), std::size(eq::kFailures));
    for (const Pinned &row : kPinned) {
        SCOPED_TRACE(row.name);
        EXPECT_STREQ(eq::errorCodeName(row.code), row.name);
        EXPECT_EQ(eq::errorCodeRetryable(row.code), row.retryable);
        EXPECT_EQ(eq::exitCodeFor(row.code), row.exitCode);
    }
}

TEST(FailureTable, WireNamesRoundTrip)
{
    for (const Pinned &row : kPinned) {
        ErrorCode back = ErrorCode::Ok;
        const bool parsed = eq::errorCodeFromName(row.name, &back);
        if (row.code == ErrorCode::Ok || row.code == ErrorCode::Unknown) {
            EXPECT_FALSE(parsed) << row.name;
            continue;
        }
        ASSERT_TRUE(parsed) << row.name;
        EXPECT_EQ(back, row.code);
    }
    ErrorCode out = ErrorCode::Usage;
    EXPECT_FALSE(eq::errorCodeFromName("bogus", &out));
    EXPECT_FALSE(eq::errorCodeFromName("", &out));
    EXPECT_EQ(out, ErrorCode::Usage);
}

TEST(FailureTable, ErrorCarriesItsCode)
{
    try {
        throw eq::Error(ErrorCode::Deadlock, "stuck");
    } catch (const std::exception &e) {
        auto *typed = dynamic_cast<const eq::Error *>(&e);
        ASSERT_NE(typed, nullptr);
        EXPECT_EQ(typed->code(), ErrorCode::Deadlock);
        EXPECT_STREQ(e.what(), "stuck");
    }
}

} // namespace
