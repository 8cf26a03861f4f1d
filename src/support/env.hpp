// Small helpers to read configuration from environment variables.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace fpsched {

/// Hard ceiling on real OS threads a single component should spawn from a
/// user-supplied count (CLI flag, environment variable): beyond a few
/// hundred workers there is no hardware left to fill, only scheduler
/// pressure — and an absurd `--threads 1000000000` must degrade to "as
/// wide as is useful", not exhaust the host's thread limit.
inline constexpr std::size_t kMaxPoolThreads = 256;

/// Returns the value of environment variable `name`, or nullopt when unset.
std::optional<std::string> env_string(const std::string& name);

/// Parses `name` as a plain decimal integer (digits only: no sign, no
/// whitespace, no trailing junk, no overflow); returns `fallback` when
/// unset or unparsable.
std::size_t env_size(const std::string& name, std::size_t fallback);

/// Number of worker threads the library should use, always in
/// [1, kMaxPoolThreads]: FPSCHED_THREADS when it parses to a positive
/// count, otherwise std::thread::hardware_concurrency().
std::size_t default_thread_count();

}  // namespace fpsched
