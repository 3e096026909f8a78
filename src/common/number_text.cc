#include "common/number_text.h"

#include <charconv>

namespace kanon {

void AppendDouble(std::string* out, double v) {
  char buf[32];  // the longest shortest form, -2.2250738585072014e-308, is 24
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, end);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[20];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, end);
}

}  // namespace kanon
