// Minimal leveled logger. Off by default so benchmarks stay quiet; tests and
// examples can raise the level. Not thread-hot: the emulation is
// single-threaded per Simulation.
#pragma once

#include <cstdio>
#include <string_view>
#include <utility>

namespace concord::log {

enum class Level : int { kNone = 0, kError = 1, kWarn = 2, kInfo = 3, kDebug = 4 };

Level level() noexcept;
void set_level(Level lvl) noexcept;

namespace detail {
void vlog(Level lvl, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
}  // namespace detail

template <typename... Args>
void error(const char* fmt, Args&&... args) {
  detail::vlog(Level::kError, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void warn(const char* fmt, Args&&... args) {
  detail::vlog(Level::kWarn, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void info(const char* fmt, Args&&... args) {
  detail::vlog(Level::kInfo, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void debug(const char* fmt, Args&&... args) {
  detail::vlog(Level::kDebug, fmt, std::forward<Args>(args)...);
}

}  // namespace concord::log
