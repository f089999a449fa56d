#ifndef VQDR_BASE_ENV_H_
#define VQDR_BASE_ENV_H_

#include <chrono>
#include <cstdint>
#include <optional>

namespace vqdr {

/// Parses an unsigned decimal value of a numeric VQDR_* environment switch
/// (VQDR_THREADS, VQDR_MEMO_CAPACITY, VQDR_OPS_DUMP_MS, VQDR_WATCHDOG_MS,
/// VQDR_LOG_RATE). Returns nullopt for null, empty, anything not starting
/// with a digit (so "-1" cannot wrap modulo 2^64 and " 8" is refused),
/// trailing garbage, and any magnitude above `max` (strtoull's ERANGE clamp
/// included). Callers pass the largest value their consumer can hold, so an
/// accepted value never narrows or wraps on the way in.
std::optional<std::uint64_t> ParseEnvUint(const char* raw, std::uint64_t max);

/// The longest period, in milliseconds, a timed wait can be given: the wait
/// converts it to steady_clock ticks and adds it to now(), and neither step
/// may overflow. Period switches are bounded by it.
inline constexpr std::uint64_t kMaxWaitMs = static_cast<std::uint64_t>(
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max())
        .count() /
    2);

}  // namespace vqdr

#endif  // VQDR_BASE_ENV_H_
