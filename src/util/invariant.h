/**
 * @file
 * The FDIP_CHECK invariant-checking layer.
 *
 * Simulator correctness is load-bearing for every reproduced figure:
 * a silently corrupted FTQ or RAS produces numbers, just wrong ones.
 * This header provides:
 *
 *  - FDIP_CHECK(cond, fmt, ...):   hot-path invariant assertion.
 *    Enabled when FDIP_ENABLE_CHECKS is 1 (the default build); compiled
 *    out entirely in release builds configured with -DFDIP_CHECKS=OFF.
 *    On failure it throws InvariantViolation (so tests can assert that
 *    illegal states are caught; an uncaught violation terminates).
 *    It guards properties the model maintains, never user input:
 *    illegal configurations are rejected with fdip_fatal in every
 *    build (the structure constructors and validateCoreConfig).
 *
 *  - InvariantScope: an RAII marker naming the checking context.
 *    Violation messages carry the full scope path (e.g.
 *    "Frontend::tick/fetch"), which turns a bare failed expression
 *    into an actionable report.
 *
 * Everything here is header-only so that any module (including
 * fdip_util, which everything links against) can use FDIP_CHECK
 * without creating a library dependency cycle.
 */

#ifndef FDIP_UTIL_INVARIANT_H_
#define FDIP_UTIL_INVARIANT_H_

#include <stdexcept>
#include <string>
#include <vector>

#include "util/log.h"

/**
 * FDIP_ENABLE_CHECKS is normally injected by the build system (the
 * FDIP_CHECKS CMake option, default ON). Standalone inclusion falls
 * back to assert()-like semantics: on unless NDEBUG.
 */
#ifndef FDIP_ENABLE_CHECKS
#ifdef NDEBUG
#define FDIP_ENABLE_CHECKS 0
#else
#define FDIP_ENABLE_CHECKS 1
#endif
#endif

namespace fdip
{

/** Compile-time view of the check configuration (for if constexpr). */
inline constexpr bool kInvariantChecksEnabled = FDIP_ENABLE_CHECKS != 0;

/**
 * Thrown when an FDIP_CHECK fails. Derives from std::logic_error: a
 * violated invariant is a simulator bug, never a recoverable runtime
 * condition.
 */
class InvariantViolation : public std::logic_error
{
  public:
    explicit InvariantViolation(const std::string &msg)
        : std::logic_error(msg)
    {
    }
};

namespace check_detail
{

/** Thread-local stack of active InvariantScope names. */
inline std::vector<const char *> &
scopeStack()
{
    thread_local std::vector<const char *> stack;
    return stack;
}

/** "outer/inner" path of the active scopes ("(global)" when none). */
inline std::string
scopePath()
{
    const auto &stack = scopeStack();
    if (stack.empty())
        return "(global)";
    std::string path;
    for (const char *name : stack) {
        if (!path.empty())
            path += '/';
        path += name;
    }
    return path;
}

/** Builds the violation message and throws. */
[[noreturn]] inline void
checkFailed(const char *file, int line, const char *expr,
            const std::string &msg)
{
    throw InvariantViolation(log_detail::format(
        "%s:%d: invariant violated in %s: (%s) %s", file, line,
        scopePath().c_str(), expr, msg.c_str()));
}

} // namespace check_detail

/**
 * Names the enclosing checking context for the lifetime of the object.
 * A no-op (and zero-cost) when checks are compiled out.
 */
class InvariantScope
{
  public:
#if FDIP_ENABLE_CHECKS
    explicit InvariantScope(const char *name)
    {
        check_detail::scopeStack().push_back(name);
    }
    ~InvariantScope() { check_detail::scopeStack().pop_back(); }
#else
    explicit InvariantScope(const char *) {}
#endif
    InvariantScope(const InvariantScope &) = delete;
    InvariantScope &operator=(const InvariantScope &) = delete;

    /** The active scope path (for tests and diagnostics). */
    static std::string path() { return check_detail::scopePath(); }
};

} // namespace fdip

#if FDIP_ENABLE_CHECKS
/**
 * Asserts a simulator invariant. The message is printf-style.
 * Throws fdip::InvariantViolation on failure; compiled out when the
 * build disables checks (-DFDIP_CHECKS=OFF).
 */
#define FDIP_CHECK(cond, ...)                                                 \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::fdip::check_detail::checkFailed(                                \
                __FILE__, __LINE__, #cond,                                    \
                ::fdip::log_detail::format(__VA_ARGS__));                     \
        }                                                                     \
    } while (0)
#else
// The condition is named but never evaluated, so a value used only by
// checks draws no unused-parameter/variable warning.
#define FDIP_CHECK(cond, ...) ((void)sizeof(!(cond)))
#endif

#endif // FDIP_UTIL_INVARIANT_H_
