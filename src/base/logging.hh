/**
 * @file
 * Diagnostic helpers following the gem5 logging idiom.
 *
 * panic()  -- a simulator bug: a condition that should never happen
 *             regardless of user input. Aborts (may dump core).
 * fatal()  -- a user error: the simulation cannot continue because of a
 *             bad configuration or invalid arguments. Exits cleanly.
 * warn()   -- functionality that may not behave exactly as intended.
 * inform() -- status messages without any connotation of misbehaviour.
 */

#ifndef EQ_BASE_LOGGING_HH
#define EQ_BASE_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace eq {

namespace detail {

/** Render a printf-free message from streamable pieces. */
template <typename... Args>
std::string
formatMessage(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: use for internal invariant violations. */
#define eq_panic(...)                                                       \
    ::eq::detail::panicImpl(__FILE__, __LINE__,                             \
                            ::eq::detail::formatMessage(__VA_ARGS__))

/** Exit with a message: use for user-caused, unrecoverable errors. */
#define eq_fatal(...)                                                       \
    ::eq::detail::fatalImpl(__FILE__, __LINE__,                             \
                            ::eq::detail::formatMessage(__VA_ARGS__))

/** Warn about questionable-but-survivable conditions. */
#define eq_warn(...)                                                        \
    ::eq::detail::warnImpl(::eq::detail::formatMessage(__VA_ARGS__))

/** Plain status output. */
#define eq_inform(...)                                                      \
    ::eq::detail::informImpl(::eq::detail::formatMessage(__VA_ARGS__))

/**
 * Assert that is active in all build types (simulator invariants). The
 * message is built in a cold, out-of-line lambda, so a passing check
 * costs its test and a branch, and small hot accessors that assert
 * still inline.
 */
#define eq_assert(cond, ...)                                                \
    do {                                                                    \
        if (__builtin_expect(!(cond), 0)) {                                 \
            [&]() __attribute__((cold, noinline, noreturn)) {               \
                ::eq::detail::panicImpl(                                    \
                    __FILE__, __LINE__,                                     \
                    ::eq::detail::formatMessage(                            \
                        "assertion failed: " #cond " ", ##__VA_ARGS__));    \
            }();                                                            \
        }                                                                   \
    } while (0)

} // namespace eq

#endif // EQ_BASE_LOGGING_HH
