// Small string builders shared by the library, its tests and benches.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace icsdiv::support {

/// `prefix` followed by the decimal `n` ("h", 7 → "h7"), appended into one
/// string.  Spelled this way because GCC 12 raises a false -Wrestrict on
/// the inlined `"h" + std::to_string(n)` temporary concatenation.
[[nodiscard]] inline std::string numbered(std::string_view prefix, std::size_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace icsdiv::support
