/**
 * @file
 * FNV-1a hashing and fixed-width hex for 64-bit keys.
 *
 * Journal grid hashes and result-cache keys are written to disk in
 * these formats, so every hash in the project goes through one
 * definition and persisted values cannot drift between writers.
 */

#ifndef EQ_BASE_HASH_HH
#define EQ_BASE_HASH_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace eq {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold the 8 little-endian bytes of @p v into @p h. */
inline uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/** Fold the bytes of @p s into @p h. */
inline uint64_t
fnv1aBytes(uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

/** @p v as 16 lowercase hex digits. */
inline std::string
hexU64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Parse 1-16 lowercase hex digits; false on anything else. */
inline bool
hexToU64(const std::string &s, uint64_t *out)
{
    if (s.empty() || s.size() > 16)
        return false;
    uint64_t v = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | uint64_t(d);
    }
    *out = v;
    return true;
}

} // namespace eq

#endif // EQ_BASE_HASH_HH
