/**
 * @file
 * The eqserved wire protocol: newline-delimited JSON over a TCP
 * stream. Every request and every response is exactly one JSON object
 * on one line, so responses to long-running work (sweep rows) can be
 * streamed incrementally and interleaved per connection.
 *
 * Requests ("op" selects the verb):
 *   {"op":"simulate","id":1,"model":"systolic","config":{...}}
 *   {"op":"sweep","id":2,"model":"soc","config":{...},
 *    "axes":[{"name":"tiles","values":[1,2]}, ...]}
 *   {"op":"stats","id":3}
 *   {"op":"shutdown","id":4}
 *
 * Responses always carry the request's "id" and "ok". A simulate
 * request answers with one {"type":"report",...} line; a sweep request
 * streams {"type":"sweep_begin"}, then one {"type":"row","index":i}
 * line per dense grid point *in completion order* as workers finish,
 * then {"type":"sweep_end"} — the client re-merges rows by their dense
 * point index, which reproduces the in-process SweepRunner table
 * byte-identically at any worker count.
 *
 * A failed request answers {"ok":false,"error":{"code":<name>,
 * "message":...,["retry_after_ms":N]}}, never free text: the code is
 * a row of the failure table (base/failure.hh), so clients branch on
 * it (retry, surface, give up) without parsing prose.
 *
 * This header also holds the minimal JSON value type the protocol is
 * built on (parser + deterministic writer; object member order is
 * preserved) and the blocking line-framing helpers both ends share.
 */

#ifndef EQ_SERVE_PROTOCOL_HH
#define EQ_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/failure.hh"
#include "sim/report.hh"
#include "sweep/table.hh"

namespace eq {
namespace serve {

/** A parsed JSON value: null / bool / int64 / double / string /
 *  array / object. Ints and reals are kept distinct so integer cells
 *  survive a round trip exactly; doubles are written with enough
 *  digits ("%.17g") to round-trip bit-exactly. */
class Json {
  public:
    enum class Kind : uint8_t { Null, Bool, Int, Real, Str, Array, Object };

    Json() : _kind(Kind::Null) {}
    Json(bool v) : _kind(Kind::Bool), _b(v) {}
    Json(int v) : _kind(Kind::Int), _i(v) {}
    Json(unsigned v) : _kind(Kind::Int), _i(v) {}
    Json(int64_t v) : _kind(Kind::Int), _i(v) {}
    Json(uint64_t v) : _kind(Kind::Int), _i(static_cast<int64_t>(v)) {}
    Json(double v) : _kind(Kind::Real), _r(v) {}
    Json(std::string v) : _kind(Kind::Str), _s(std::move(v)) {}
    Json(const char *v) : _kind(Kind::Str), _s(v) {}

    static Json array() { return Json(Kind::Array); }
    static Json object() { return Json(Kind::Object); }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isInt() const { return _kind == Kind::Int; }
    bool isNumber() const
    {
        return _kind == Kind::Int || _kind == Kind::Real;
    }
    bool isStr() const { return _kind == Kind::Str; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    bool asBool() const { return _b; }
    /** Int value (Real cells truncate). */
    int64_t asInt() const
    {
        return _kind == Kind::Real ? static_cast<int64_t>(_r) : _i;
    }
    /** Numeric value (Int promotes). */
    double asReal() const
    {
        return _kind == Kind::Int ? static_cast<double>(_i) : _r;
    }
    const std::string &asStr() const { return _s; }

    // Array access.
    void push(Json v) { _arr.push_back(std::move(v)); }
    size_t size() const { return _arr.size(); }
    const Json &at(size_t i) const { return _arr[i]; }
    const std::vector<Json> &items() const { return _arr; }

    // Object access (insertion-ordered; set() replaces in place).
    void set(const std::string &key, Json v);
    /** Member lookup; nullptr when absent (or not an object). */
    const Json *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return _obj;
    }

    /** Typed member conveniences for request parsing: the member's
     *  value when present and of the right kind, else @p fallback. */
    int64_t getInt(const std::string &key, int64_t fallback) const;
    std::string getStr(const std::string &key,
                       const std::string &fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    /** Compact single-line serialization (no spaces, members in
     *  insertion order) — one dump() per protocol line. */
    std::string dump() const;

    /** Parse @p text (one complete JSON value, surrounding whitespace
     *  allowed). Returns false and sets @p err on malformed input. */
    static bool parse(const std::string &text, Json *out,
                      std::string *err);

  private:
    explicit Json(Kind k) : _kind(k) {}

    void dumpTo(std::string &out) const;

    Kind _kind;
    bool _b = false;
    int64_t _i = 0;
    double _r = 0.0;
    std::string _s;
    std::vector<Json> _arr;
    std::vector<std::pair<std::string, Json>> _obj;
};

/** A parsed error response (see parseError). */
struct ErrorInfo {
    /** A transport failure until a server's error says otherwise. */
    ErrorCode code = ErrorCode::IoError;
    std::string message;
    int64_t retryAfterMs = -1; ///< server hint; -1 = none
};

/** Extract the structured error from a response with "ok":false.
 *  Unknown or missing codes map to ErrorCode::Unknown. */
ErrorInfo parseError(const Json &response);

/**
 * Blocking newline-framed reads over a socket/pipe fd. Lines are
 * LF-terminated (a trailing CR is stripped so `nc -C` works); the
 * terminator is removed from the returned line.
 *
 * Input is capped at @p max_line bytes per line (default 8 MiB): a
 * peer that streams an endless line cannot grow the buffer — and the
 * daemon's memory — without bound. An oversized frame ends the
 * stream; overflowed() tells the caller to answer with a structured
 * frame_too_large error before closing.
 */
class LineReader {
  public:
    static constexpr size_t kDefaultMaxLine = 8u << 20; // 8 MiB

    explicit LineReader(int fd, size_t max_line = kDefaultMaxLine)
        : _fd(fd), _max(max_line ? max_line : kDefaultMaxLine)
    {
    }

    /** Read the next complete line. Returns false on EOF, error, or
     *  an oversized frame (call again is not meaningful afterwards). */
    bool next(std::string *line);

    /** True when the stream ended because a line exceeded the cap. */
    bool overflowed() const { return _overflow; }

    size_t maxLine() const { return _max; }

  private:
    int _fd;
    size_t _max;
    std::string _buf;
    bool _eof = false;
    bool _overflow = false;
};

/** Write @p line plus the LF terminator, looping over partial writes.
 *  SIGPIPE-safe (MSG_NOSIGNAL); returns false once the peer is gone. */
bool writeLine(int fd, const std::string &line);

/**
 * Serialize a SimReport. Every field is simulation-deterministic
 * except wall_s (host execution time), which @p include_wall drops for
 * byte-comparing warm and cold runs of the same config.
 */
Json reportToJson(const sim::SimReport &report, bool include_wall = true);

/**
 * sweep::Cell <-> Json codec shared by every consumer that moves rows
 * through JSON: the daemon's streamed sweep rows, the client's
 * re-merge, the sweep journal's records, and the result cache. Int
 * and Real stay distinct (a Real whose value is integral serializes
 * as a JSON integer and is re-promoted by the schema on decode), so a
 * row survives the round trip byte-identically under the table's
 * renderers.
 */
Json cellToJson(const sweep::Cell &cell);
Json cellsToJson(const std::vector<sweep::Cell> &cells);

/** Decode a row against @p schema: arity must match and every cell
 *  must be kind-compatible with its column (Int column ⇐ JSON int,
 *  Real ⇐ int or real, Str ⇐ string). False + @p err otherwise. */
bool cellsFromJson(const Json &cells,
                   const std::vector<sweep::Column> &schema,
                   std::vector<sweep::Cell> *out, std::string *err);

/** Standard response skeletons ("id" echoed, "ok" set). @p id may be
 *  any client-chosen Json value (servers echo it verbatim). Errors
 *  carry the structured taxonomy object; @p retry_after_ms >= 0 adds
 *  the backpressure hint. */
Json makeResponse(const Json *id, const std::string &type);
Json makeError(const Json *id, ErrorCode code,
               const std::string &message, int64_t retry_after_ms = -1);

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_PROTOCOL_HH
