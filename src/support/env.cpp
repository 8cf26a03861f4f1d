#include "support/env.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <thread>

namespace fpsched {

std::optional<std::string> env_string(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

std::size_t env_size(const std::string& name, std::size_t fallback) {
  const auto raw = env_string(name);
  // strtoull alone would accept leading whitespace and a sign, silently
  // wrapping "-1" to 2^64 - 1.
  if (!raw || raw->empty() || raw->find_first_not_of("0123456789") != std::string::npos) {
    return fallback;
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(raw->c_str(), nullptr, 10);
  if (errno == ERANGE) return fallback;
  return static_cast<std::size_t>(parsed);
}

std::size_t default_thread_count() {
  const std::size_t hw =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxPoolThreads);
  const std::size_t requested = env_size("FPSCHED_THREADS", hw);
  return requested == 0 ? hw : std::min(requested, kMaxPoolThreads);
}

}  // namespace fpsched
