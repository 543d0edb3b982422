#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace pico {

void write_json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string json_string(std::string_view text) {
  std::ostringstream os;
  write_json_string(os, text);
  return os.str();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace pico
