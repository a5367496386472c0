/**
 * @file
 * Small string helpers shared across the project.
 */

#ifndef EQ_BASE_STRINGUTIL_HH
#define EQ_BASE_STRINGUTIL_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace eq {

/** Split @p s on @p sep, dropping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** True iff @p s starts with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/**
 * Strictly parse all of @p text as a base-10 integer in [@p min,
 * @p max]. Rejects empty text, leading whitespace, trailing junk
 * ("3x"), overflow and out-of-range values — what every numeric
 * command-line flag goes through, so a typo is a usage error instead
 * of a silently different number.
 */
bool parseInt(const std::string &text, int64_t min, int64_t max,
              int64_t *out);

/** parseInt into an integer type @p T: values above T's maximum (or
 *  below @p min) are rejected, never narrowed. */
template <class T>
bool
parseInt(const std::string &text, T min, T *out)
{
    constexpr uint64_t tmax = uint64_t(std::numeric_limits<T>::max());
    constexpr int64_t max =
        int64_t(std::min<uint64_t>(tmax, INT64_MAX));
    int64_t v = 0;
    if (!parseInt(text, int64_t(min), max, &v))
        return false;
    *out = static_cast<T>(v);
    return true;
}

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

} // namespace eq

#endif // EQ_BASE_STRINGUTIL_HH
