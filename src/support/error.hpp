// Error handling for the sspred library.
//
// Precondition violations throw sspred::support::Error (std::logic_error):
// the library is used for offline analysis, so failing loudly beats
// continuing with a corrupt simulation.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace sspred::support {

/// Exception thrown on contract violations inside the library.
class Error : public std::logic_error {
 public:
  explicit Error(const std::string& what) : std::logic_error(what) {}
};

/// Throws Error with file/line context, the file named from its last
/// `src/` directory on. Used by SSPRED_REQUIRE.
[[noreturn]] void raise(std::string_view condition, std::string_view message,
                        std::string_view file, int line);

}  // namespace sspred::support

/// Contract check: throws sspred::support::Error when `cond` is false.
#define SSPRED_REQUIRE(cond, message)                                   \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::sspred::support::raise(#cond, (message), __FILE__, __LINE__);   \
    }                                                                   \
  } while (false)
