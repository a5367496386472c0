#include "serve/protocol.hh"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace eq {
namespace serve {

// ---------------------------------------------------------------------------
// Json: object access

void
Json::set(const std::string &key, Json v)
{
    for (auto &m : _obj) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    _obj.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &m : _obj)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

int64_t
Json::getInt(const std::string &key, int64_t fallback) const
{
    const Json *v = find(key);
    return v && v->isNumber() ? v->asInt() : fallback;
}

std::string
Json::getStr(const std::string &key, const std::string &fallback) const
{
    const Json *v = find(key);
    return v && v->isStr() ? v->asStr() : fallback;
}

bool
Json::getBool(const std::string &key, bool fallback) const
{
    const Json *v = find(key);
    return v && v->isBool() ? v->asBool() : fallback;
}

// ---------------------------------------------------------------------------
// Json: writer

namespace {

void
dumpString(const std::string &s, std::string &out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

} // namespace

void
Json::dumpTo(std::string &out) const
{
    char buf[64];
    switch (_kind) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += _b ? "true" : "false";
        break;
    case Kind::Int:
        out.append(buf, std::to_chars(buf, buf + sizeof buf, _i).ptr);
        break;
    case Kind::Real:
        // General format at precision 17 spells what %.17g does and
        // round-trips every finite double exactly; non-finite values
        // have no JSON spelling, write null.
        if (_r != _r || _r > 1.7976931348623157e308 ||
            _r < -1.7976931348623157e308) {
            out += "null";
        } else {
            out.append(buf, std::to_chars(buf, buf + sizeof buf, _r,
                                          std::chars_format::general, 17)
                                .ptr);
        }
        break;
    case Kind::Str:
        dumpString(_s, out);
        break;
    case Kind::Array: {
        out += '[';
        bool first = true;
        for (const Json &v : _arr) {
            if (!first)
                out += ',';
            first = false;
            v.dumpTo(out);
        }
        out += ']';
        break;
    }
    case Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &m : _obj) {
            if (!first)
                out += ',';
            first = false;
            dumpString(m.first, out);
            out += ':';
            m.second.dumpTo(out);
        }
        out += '}';
        break;
    }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

// ---------------------------------------------------------------------------
// Json: parser (recursive descent)

namespace {

struct Parser {
    const char *p;
    const char *end;
    std::string err;

    bool
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg;
        return false;
    }

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (static_cast<size_t>(end - p) >= n &&
            std::memcmp(p, word, n) == 0) {
            p += n;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return fail("expected string");
        out->clear();
        while (p < end && *p != '"') {
            unsigned char c = static_cast<unsigned char>(*p);
            if (c == '\\') {
                if (p + 1 >= end)
                    return fail("truncated escape");
                ++p;
                switch (*p) {
                case '"': *out += '"'; break;
                case '\\': *out += '\\'; break;
                case '/': *out += '/'; break;
                case 'b': *out += '\b'; break;
                case 'f': *out += '\f'; break;
                case 'n': *out += '\n'; break;
                case 'r': *out += '\r'; break;
                case 't': *out += '\t'; break;
                case 'u': {
                    if (end - p < 5)
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 1; i <= 4; ++i) {
                        char h = p[i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    p += 4;
                    // Encode the code point as UTF-8 (surrogate pairs
                    // are passed through as-is; the protocol never
                    // emits them).
                    if (cp < 0x80) {
                        *out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        *out += static_cast<char>(0xc0 | (cp >> 6));
                        *out += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        *out += static_cast<char>(0xe0 | (cp >> 12));
                        *out += static_cast<char>(0x80 |
                                                  ((cp >> 6) & 0x3f));
                        *out += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                }
                default: return fail("unknown escape");
                }
                ++p;
            } else if (c < 0x20) {
                return fail("raw control character in string");
            } else {
                *out += static_cast<char>(c);
                ++p;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseNumber(Json *out)
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        bool isReal = false;
        while (p < end &&
               ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                *p == 'E' || *p == '+' || *p == '-')) {
            if (*p == '.' || *p == 'e' || *p == 'E')
                isReal = true;
            ++p;
        }
        if (p == start || (p == start + 1 && *start == '-'))
            return fail("expected number");
        std::string text(start, p);
        errno = 0;
        if (isReal) {
            char *endp = nullptr;
            double v = std::strtod(text.c_str(), &endp);
            if (endp != text.c_str() + text.size())
                return fail("malformed number");
            *out = Json(v);
        } else {
            char *endp = nullptr;
            long long v = std::strtoll(text.c_str(), &endp, 10);
            if (endp != text.c_str() + text.size())
                return fail("malformed number");
            if (errno == ERANGE)
                return fail("integer out of range");
            *out = Json(static_cast<int64_t>(v));
        }
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
        case '{': {
            ++p;
            Json obj = Json::object();
            skipWs();
            if (consume('}')) {
                *out = std::move(obj);
                return true;
            }
            for (;;) {
                std::string key;
                if (!parseString(&key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Json v;
                if (!parseValue(&v, depth + 1))
                    return false;
                obj.set(key, std::move(v));
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            *out = std::move(obj);
            return true;
        }
        case '[': {
            ++p;
            Json arr = Json::array();
            skipWs();
            if (consume(']')) {
                *out = std::move(arr);
                return true;
            }
            for (;;) {
                Json v;
                if (!parseValue(&v, depth + 1))
                    return false;
                arr.push(std::move(v));
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            *out = std::move(arr);
            return true;
        }
        case '"': {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Json(std::move(s));
            return true;
        }
        case 't':
            if (literal("true")) {
                *out = Json(true);
                return true;
            }
            return fail("bad literal");
        case 'f':
            if (literal("false")) {
                *out = Json(false);
                return true;
            }
            return fail("bad literal");
        case 'n':
            if (literal("null")) {
                *out = Json();
                return true;
            }
            return fail("bad literal");
        default: return parseNumber(out);
        }
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json *out, std::string *err)
{
    Parser parser{text.data(), text.data() + text.size(), {}};
    Json v;
    if (!parser.parseValue(&v, 0)) {
        if (err)
            *err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (err)
            *err = "trailing characters after JSON value";
        return false;
    }
    *out = std::move(v);
    return true;
}

// ---------------------------------------------------------------------------
// Error responses

ErrorInfo
parseError(const Json &response)
{
    ErrorInfo info;
    const Json *error = response.find("error");
    if (!error || !error->isObject()) {
        info.code = ErrorCode::Unknown;
        info.message = "missing error object";
        return info;
    }
    if (!errorCodeFromName(error->getStr("code", ""), &info.code))
        info.code = ErrorCode::Unknown;
    info.message = error->getStr("message", "");
    info.retryAfterMs = error->getInt("retry_after_ms", -1);
    return info;
}

// ---------------------------------------------------------------------------
// Line framing

bool
LineReader::next(std::string *line)
{
    for (;;) {
        size_t nl = _buf.find('\n');
        if (nl != std::string::npos) {
            if (nl > _max) {
                _overflow = true;
                return false;
            }
            *line = _buf.substr(0, nl);
            _buf.erase(0, nl + 1);
            if (!line->empty() && line->back() == '\r')
                line->pop_back();
            return true;
        }
        if (_buf.size() > _max) {
            _overflow = true;
            return false;
        }
        if (_eof)
            return false;
        char chunk[4096];
        ssize_t n = ::read(_fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0) {
            _eof = true;
            // A final unterminated line still counts as a line.
            if (!_buf.empty()) {
                *line = std::move(_buf);
                _buf.clear();
                if (!line->empty() && line->back() == '\r')
                    line->pop_back();
                return true;
            }
            return false;
        }
        _buf.append(chunk, static_cast<size_t>(n));
    }
}

bool
writeLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    size_t off = 0;
    while (off < framed.size()) {
        ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

// ---------------------------------------------------------------------------
// Report serialization and response skeletons

Json
reportToJson(const sim::SimReport &report, bool include_wall)
{
    Json out = Json::object();
    out.set("cycles", report.cycles);
    out.set("events", report.eventsExecuted);
    out.set("ops", report.opsExecuted);
    out.set("dispatches", report.dispatchCount);
    if (include_wall)
        out.set("wall_s", report.wallSeconds);
    Json conns = Json::array();
    for (const auto &c : report.connections) {
        Json j = Json::object();
        j.set("name", c.name);
        j.set("kind", c.kind);
        j.set("bw_limit", c.bandwidthLimit);
        j.set("rd_B", c.readBytes);
        j.set("wr_B", c.writeBytes);
        j.set("avg_rd_bw", c.avgReadBw);
        j.set("avg_wr_bw", c.avgWriteBw);
        j.set("max_bw", c.maxBw);
        j.set("max_bw_portion_rd", c.maxBwPortionRead);
        j.set("max_bw_portion_wr", c.maxBwPortionWrite);
        conns.push(std::move(j));
    }
    out.set("connections", std::move(conns));
    Json mems = Json::array();
    for (const auto &m : report.memories) {
        Json j = Json::object();
        j.set("name", m.name);
        j.set("kind", m.kind);
        j.set("rd_B", m.bytesRead);
        j.set("wr_B", m.bytesWritten);
        j.set("avg_rd_bw", m.avgReadBw);
        j.set("avg_wr_bw", m.avgWriteBw);
        mems.push(std::move(j));
    }
    out.set("memories", std::move(mems));
    Json procs = Json::array();
    for (const auto &pr : report.processors) {
        Json j = Json::object();
        j.set("name", pr.name);
        j.set("kind", pr.kind);
        j.set("busy_cycles", pr.busyCycles);
        j.set("ops", pr.opsExecuted);
        j.set("utilization", pr.utilization);
        procs.push(std::move(j));
    }
    out.set("processors", std::move(procs));
    return out;
}

Json
cellToJson(const sweep::Cell &cell)
{
    switch (cell.kind()) {
    case sweep::ValueKind::Int: return Json(cell.asInt());
    case sweep::ValueKind::Real: return Json(cell.asReal());
    case sweep::ValueKind::Str: return Json(cell.asStr());
    }
    return Json();
}

Json
cellsToJson(const std::vector<sweep::Cell> &cells)
{
    Json out = Json::array();
    for (const auto &cell : cells)
        out.push(cellToJson(cell));
    return out;
}

bool
cellsFromJson(const Json &cells,
              const std::vector<sweep::Column> &schema,
              std::vector<sweep::Cell> *out, std::string *err)
{
    if (!cells.isArray() || cells.size() != schema.size()) {
        if (err)
            *err = "row has " + std::to_string(cells.size()) +
                   " cells, schema has " +
                   std::to_string(schema.size()) + " columns";
        return false;
    }
    out->clear();
    out->reserve(schema.size());
    for (size_t c = 0; c < schema.size(); ++c) {
        const Json &v = cells.at(c);
        switch (schema[c].kind) {
        case sweep::ValueKind::Int:
            if (!v.isInt()) {
                if (err)
                    *err = "column '" + schema[c].name +
                           "' expects an integer cell";
                return false;
            }
            out->push_back(sweep::Cell(v.asInt()));
            break;
        case sweep::ValueKind::Real:
            // Integral reals serialize as JSON ints; re-promote.
            if (!v.isNumber()) {
                if (err)
                    *err = "column '" + schema[c].name +
                           "' expects a numeric cell";
                return false;
            }
            out->push_back(sweep::Cell(v.asReal()));
            break;
        case sweep::ValueKind::Str:
            if (!v.isStr()) {
                if (err)
                    *err = "column '" + schema[c].name +
                           "' expects a string cell";
                return false;
            }
            out->push_back(sweep::Cell(v.asStr()));
            break;
        }
    }
    return true;
}

Json
makeResponse(const Json *id, const std::string &type)
{
    Json out = Json::object();
    out.set("id", id ? *id : Json());
    out.set("ok", true);
    out.set("type", type);
    return out;
}

Json
makeError(const Json *id, ErrorCode code, const std::string &message,
          int64_t retry_after_ms)
{
    Json out = Json::object();
    out.set("id", id ? *id : Json());
    out.set("ok", false);
    Json error = Json::object();
    error.set("code", errorCodeName(code));
    error.set("message", message);
    if (retry_after_ms >= 0)
        error.set("retry_after_ms", retry_after_ms);
    out.set("error", std::move(error));
    return out;
}

} // namespace serve
} // namespace eq
