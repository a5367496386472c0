/**
 * @file
 * The failure vocabulary: every way a served request, a simulation
 * run or a sweep command can fail, as one table of {code, wire name,
 * retryable, exit code}.
 *
 *  - The daemon answers a failed request with the row's wire name —
 *    {"code":<name>,"message":...} — and clients retry exactly the
 *    retryable rows (served results are byte-deterministic, so
 *    re-sending after a transient condition is always safe).
 *  - The sweep tools print `<tool>: error: {"code":<name>,...}` and
 *    exit with the row's exit code; scripts branch on it.
 *  - Code that fails with a code throws eq::Error, which carries it.
 *
 * Nothing else spells a code's name or an exit status. A row lands
 * together with the code that raises it.
 */

#ifndef EQ_BASE_FAILURE_HH
#define EQ_BASE_FAILURE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>

namespace eq {

enum class ErrorCode : uint8_t {
    Ok,                    ///< no failure
    MalformedRequest,      ///< request line was not a JSON object
    FrameTooLarge,         ///< request line exceeded the reader's cap
    BadRequest,            ///< unknown op/model/config/axis
    Backpressure,          ///< queue full; retry after retry_after_ms
    DeadlineExceeded,      ///< deadline_ms elapsed before the run started
    Cancelled,             ///< client connection went away mid-request
    BuildFailed,           ///< program build failed
    Internal,              ///< worker-side exception
    ShuttingDown,          ///< server is stopping
    ResourceExhausted,     ///< the run passed the op budget or memory
    Deadlock,              ///< the run ended with events never completed
    SimulationFailed,      ///< the module asks for what the engine lacks
    IoError,               ///< open/read/write or transport failed
    Usage,                 ///< bad command line
    JournalHeaderMismatch, ///< the journal belongs to a different sweep
    JournalCorrupt,        ///< bad record with valid records after it
    PointFailed,           ///< a sweep point threw
    Unknown,               ///< unrecognized wire code (client side)
};

/** One row of the failure table. */
struct FailureRow {
    ErrorCode code;
    const char *name; ///< wire name: the "code" of an error object
    bool retryable;   ///< a client may re-send the request verbatim
    int exitCode;     ///< what a command line exits with
};

/** Indexed by ErrorCode. Ok and Unknown are never sent or parsed. */
inline constexpr FailureRow kFailures[] = {
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

static_assert(
    [] {
        for (size_t i = 0; i < std::size(kFailures); ++i)
            if (size_t(kFailures[i].code) != i)
                return false;
        return size_t(ErrorCode::Unknown) + 1 == std::size(kFailures);
    }(),
    "kFailures must list every ErrorCode, in order");

constexpr const char *
errorCodeName(ErrorCode code)
{
    return kFailures[size_t(code)].name;
}

constexpr bool
errorCodeRetryable(ErrorCode code)
{
    return kFailures[size_t(code)].retryable;
}

constexpr int
exitCodeFor(ErrorCode code)
{
    return kFailures[size_t(code)].exitCode;
}

/** False (leaving @p out untouched) for "ok", "unknown" and names not
 *  in the table. */
inline bool
errorCodeFromName(const std::string &name, ErrorCode *out)
{
    for (const FailureRow &row : kFailures) {
        if (row.code != ErrorCode::Ok && row.code != ErrorCode::Unknown &&
            name == row.name) {
            *out = row.code;
            return true;
        }
    }
    return false;
}

/** A failure that names its code; what() is the message. */
class Error : public std::runtime_error {
  public:
    Error(ErrorCode code, const std::string &message)
        : std::runtime_error(message), _code(code)
    {
    }

    ErrorCode code() const { return _code; }

  private:
    ErrorCode _code;
};

} // namespace eq

#endif // EQ_BASE_FAILURE_HH
