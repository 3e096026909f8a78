#ifndef KANON_COMMON_NUMBER_TEXT_H_
#define KANON_COMMON_NUMBER_TEXT_H_

#include <cstdint>
#include <string>

namespace kanon {

/// Appends the shortest decimal text that parses back to exactly `v`
/// (std::to_chars with no precision, which guarantees the round trip).
/// Every served body formats its doubles here, so two renders of one value
/// are byte-equal and a client's strtod recovers the stored bits. No
/// serving path emits a non-finite value; one would print as inf or nan.
void AppendDouble(std::string* out, double v);

/// Appends the decimal digits of `v`.
void AppendUint(std::string* out, uint64_t v);

}  // namespace kanon

#endif  // KANON_COMMON_NUMBER_TEXT_H_
