// Strict readers for numeric MH_* environment variables.
//
// A value counts only when the whole string parses as a finite number, so
// "12abc", "inf", "nan" and "" fall back instead of being half-read.
#pragma once

#include <cmath>
#include <cstdlib>
#include <limits>

namespace mh {

/// The variable as a fully parsed, finite number; `fallback` when it is
/// unset or malformed (empty, trailing characters, inf, nan).
inline double env_number(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  return *end == '\0' && std::isfinite(v) ? v : fallback;
}

/// A count or seed: env_number that must also fit T (whole part in
/// [0, T's max]), else `fallback`.
template <typename T>
T env_integer(const char* name, T fallback) {
  const double v = env_number(name, -1.0);
  const double limit =
      std::ldexp(1.0, std::numeric_limits<T>::digits);  // T's max + 1
  return v >= 0.0 && v < limit ? static_cast<T>(v) : fallback;
}

}  // namespace mh
