#include "sim/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace tdm::sim {

namespace {

/**
 * The verbosity is set once by a CLI and then read from every campaign
 * worker thread; a plain global here is a data race (TSan-verified).
 * Relaxed ordering suffices: level changes need no synchronization
 * with the messages themselves.
 */
std::atomic<LogLevel> globalLevel{LogLevel::Warn};

/**
 * One emission lock so concurrent workers' messages interleave at
 * line granularity, not character granularity — and so TSan builds of
 * the campaign engine see a clean stream, not racing stream state.
 */
std::mutex &
emitMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

bool
parseLogLevel(const std::string &name, LogLevel &out)
{
    if (name == "quiet")
        out = LogLevel::Quiet;
    else if (name == "warn")
        out = LogLevel::Warn;
    else if (name == "info")
        out = LogLevel::Info;
    else if (name == "debug")
        out = LogLevel::Debug;
    else
        return false;
    return true;
}

namespace detail {

void
panicImpl(const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(emitMutex());
        std::cerr << "panic: " << msg << std::endl;
    }
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn) {
        std::lock_guard<std::mutex> lock(emitMutex());
        std::cerr << "warn: " << msg << std::endl;
    }
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Info) {
        std::lock_guard<std::mutex> lock(emitMutex());
        std::cerr << "info: " << msg << std::endl;
    }
}

} // namespace detail

} // namespace tdm::sim
