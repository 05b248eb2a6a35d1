#include "common/cpu.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace sitfact {
namespace {

#if defined(__x86_64__) || defined(__i386__)

/// cpuid leaf 7 subleaf 0, EBX bit 5: AVX2. Checked together with the
/// OSXSAVE/XGETBV dance: AVX registers are only usable when the OS saves
/// the YMM state, so AVX2 without OS support must report as scalar.
bool OsSavesYmm() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kOsxsave = 1u << 27;
  constexpr unsigned kAvx = 1u << 28;
  if ((ecx & kOsxsave) == 0 || (ecx & kAvx) == 0) return false;
  unsigned xcr0_lo, xcr0_hi;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  return (xcr0_lo & 0x6) == 0x6;  // XMM and YMM state enabled
}

bool HasAvx2() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kAvx2 = 1u << 5;
  return (ebx & kAvx2) != 0 && OsSavesYmm();
}

#endif  // x86

}  // namespace

SimdTier DetectSimdTier() {
#if defined(__x86_64__) || defined(__i386__)
  if (HasAvx2()) return SimdTier::kAvx2;
#endif
  return SimdTier::kScalar;
}

SimdTier ResolveSimdTier(const char* override_str, SimdTier detected) {
  if (override_str == nullptr || override_str[0] == '\0') return detected;
  SimdTier wanted;
  if (std::strcmp(override_str, "scalar") == 0) {
    wanted = SimdTier::kScalar;
  } else if (std::strcmp(override_str, "avx2") == 0) {
    wanted = SimdTier::kAvx2;
  } else {
    return detected;  // unknown spelling: ignore, never crash a run
  }
  return wanted < detected ? wanted : detected;  // clamp to capability
}

SimdTier ActiveSimdTier() {
  static const SimdTier tier =
      ResolveSimdTier(std::getenv("SITFACT_SIMD"), DetectSimdTier());
  return tier;
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "scalar";
}

}  // namespace sitfact
