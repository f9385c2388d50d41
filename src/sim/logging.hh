/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - an internal simulator bug; aborts.
 * fatal()  - a user error (bad configuration, invalid argument); throws
 *            FatalError.
 * warn()   - questionable but survivable condition.
 * inform() - status message.
 *
 * All take printf-free, ostream-composable message pieces.
 */

#ifndef TDM_SIM_LOGGING_HH
#define TDM_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace tdm::sim {

/** Verbosity levels for the global logger. */
enum class LogLevel { Quiet, Warn, Info, Debug };

/** Get/set the global verbosity (default: Warn). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/** Parse "quiet"/"warn"/"info"/"debug" (the CLIs' --log-level values);
 *  false on anything else. */
bool parseLogLevel(const std::string &name, LogLevel &out);

/**
 * What fatal() throws. The campaign engine reports it as the failed
 * point's error, so a spec the model rejects never ends a server; a
 * CLI main catches it, prints "fatal: <message>" and exits 1.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] void panicImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Report an internal simulator bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/** Reject a user error by throwing FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/** Report a survivable but suspicious condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace tdm::sim

#endif // TDM_SIM_LOGGING_HH
