// Error handling primitives shared by every fpsched module.
//
// The library reports contract violations and invalid inputs with exceptions
// derived from fpsched::Error; numerical routines never throw on domain
// edge cases they can represent (e.g. an expected makespan of +inf is a
// legitimate value for an astronomically failure-dominated schedule).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fpsched {

/// Base class for all exceptions thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an input value violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a graph operation would require an acyclic graph but the
/// input contains a cycle, or when an edge references an unknown vertex.
class GraphError : public Error {
 public:
  explicit GraphError(const std::string& what) : Error(what) {}
};

/// Thrown when a schedule is not a valid linearization of its DAG.
class ScheduleError : public Error {
 public:
  explicit ScheduleError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(std::string_view expr, std::string_view message,
                                      const std::source_location& loc);
}  // namespace detail

/// Precondition check: throws InvalidArgument with location info when
/// `condition` is false. Used at public API boundaries (kept in release
/// builds; these checks are never on a hot path).
inline void ensure(bool condition, std::string_view message,
                   const std::source_location loc = std::source_location::current()) {
  if (!condition) detail::throw_check_failure("ensure", message, loc);
}

}  // namespace fpsched
