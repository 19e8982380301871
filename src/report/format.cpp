#include "report/format.h"

#include <cstdio>
#include <iomanip>
#include <sstream>

namespace e2e {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char code[8];
      std::snprintf(code, sizeof code, "\\u%04x", static_cast<unsigned char>(c));
      out += code;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_str(const std::string& s) { return "\"" + json_escape(s) + "\""; }

std::string hex_hash(std::uint64_t hash) {
  std::ostringstream stream;
  stream << "0x" << std::hex << std::setfill('0') << std::setw(16) << hash;
  return stream.str();
}

}  // namespace e2e
