#include "rt/simd/simd.hpp"

namespace rt::simd {

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdLevel resolve(SimdMode mode) {
  switch (mode) {
    case SimdMode::kOff:
      return SimdLevel::kScalar;
    case SimdMode::kAuto:
    case SimdMode::kAvx2:
      return avx2_supported() ? SimdLevel::kAvx2 : SimdLevel::kRows;
  }
  return SimdLevel::kScalar;
}

SimdLevel exec_level(SimdMode mode, bool pooled) {
  const SimdLevel l = resolve(mode);
  return (l == SimdLevel::kScalar && pooled) ? SimdLevel::kRows : l;
}

const char* simd_mode_name(SimdMode m) {
  switch (m) {
    case SimdMode::kOff:
      return "off";
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "?";
}

const char* simd_level_name(SimdLevel l) {
  switch (l) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kRows:
      return "rows";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool parse_simd_mode(const std::string& s, SimdMode* out) {
  if (s == "off") {
    *out = SimdMode::kOff;
  } else if (s == "auto") {
    *out = SimdMode::kAuto;
  } else if (s == "avx2") {
    *out = SimdMode::kAvx2;
  } else {
    return false;
  }
  return true;
}

long align_leading(long p1, long vec) {
  if (vec <= 1) return p1;
  return ((p1 + vec - 1) / vec) * vec;
}

rt::array::Dims3 align_dims(rt::array::Dims3 d, long vec) {
  d.p1 = align_leading(d.p1, vec);
  return d;
}

}  // namespace rt::simd
