// JSON output helpers shared by every writer in the tree (Chrome traces,
// audit and report JSON, bench sidecars).
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace pico {

/// Write `text` as a quoted JSON string: quote, backslash and every control
/// character below 0x20 are escaped.
void write_json_string(std::ostream& os, std::string_view text);

/// `text` as a quoted, escaped JSON string.
std::string json_string(std::string_view text);

/// `value` as a JSON number ("%.9g"); NaN and infinities, which JSON
/// cannot express, become null.
std::string json_number(double value);

}  // namespace pico
