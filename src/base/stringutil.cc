#include "base/stringutil.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace eq {

bool
parseInt(const std::string &text, int64_t min, int64_t max, int64_t *out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size() || v < min ||
        v > max)
        return false;
    *out = v;
    return true;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

} // namespace eq
