#include "base/env.h"

#include <cerrno>
#include <cstdlib>

namespace vqdr {

std::optional<std::uint64_t> ParseEnvUint(const char* raw, std::uint64_t max) {
  if (raw == nullptr || *raw < '0' || *raw > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (errno == ERANGE || *end != '\0' || parsed > max) return std::nullopt;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace vqdr
