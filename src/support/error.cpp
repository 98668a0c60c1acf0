#include "support/error.hpp"

#include <sstream>

namespace sspred::support {

void raise(std::string_view condition, std::string_view message,
           std::string_view file, int line) {
  // The message reaches clients (a served PredictResult::error), so it
  // names the file from the source tree's src/ on, not by the build's
  // absolute path.
  if (const auto src = file.rfind("/src/"); src != std::string_view::npos) {
    file.remove_prefix(src + 1);
  }
  std::ostringstream os;
  os << file << ":" << line << ": requirement failed: " << condition;
  if (!message.empty()) os << " — " << message;
  throw Error(os.str());
}

}  // namespace sspred::support
