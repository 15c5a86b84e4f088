// Error hierarchy for the locwm library.
//
// Invariant violations and misuse of APIs throw exceptions derived from
// locwm::Error.  Recoverable outcomes ("no locality of the requested size
// exists") are reported through std::optional / status structs instead, so
// exceptions always indicate a caller bug or corrupted input.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace locwm {

/// Base class of every exception thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a graph invariant is violated (dangling id, cycle in the
/// data-dependence relation, duplicate edge where forbidden, ...).
class GraphError : public Error {
 public:
  explicit GraphError(const std::string& what) : Error(what) {}
};

/// Thrown when parsing a textual CDFG description fails.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// Thrown when a scheduling request is infeasible in a way that indicates
/// caller error (e.g. a latency bound below the critical path).
class ScheduleError : public Error {
 public:
  explicit ScheduleError(const std::string& what) : Error(what) {}
};

/// Thrown on watermarking-protocol misuse (bad parameters, empty key, ...).
class WatermarkError : public Error {
 public:
  explicit WatermarkError(const std::string& what) : Error(what) {}
};

namespace detail {

/// Throws E(message) when `condition` is false.  Used instead of assert so
/// that release builds keep the checks that guard API contracts.  The
/// message is a view so that a passing check on a hot accessor allocates
/// nothing; the owning string is built only on the throw path.
template <typename E = Error>
inline void check(bool condition, std::string_view message) {
  if (!condition) {
    throw E(std::string(message));
  }
}

}  // namespace detail
}  // namespace locwm
