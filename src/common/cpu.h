#ifndef SITFACT_COMMON_CPU_H_
#define SITFACT_COMMON_CPU_H_

namespace sitfact {

/// Runtime CPU capability detection for the SIMD dominance kernels
/// (skyline/dominance_simd.h). Tiers are ordered: every tier implies all
/// the lower ones, so "clamp to detected" is a simple min.
enum class SimdTier {
  kScalar = 0,  // portable C++ — also the bit-exact oracle the tests pin
  kAvx2 = 1,    // 4 doubles / 8 u32 per instruction
};

/// Highest tier the running CPU supports, from cpuid. Scalar on non-x86.
SimdTier DetectSimdTier();

/// Tier selection given an override string (the SITFACT_SIMD environment
/// variable: "scalar" | "avx2") and the detected capability.
/// Unknown or empty overrides fall back to `detected`; an override above
/// the machine's capability is clamped down to `detected` rather than
/// crashing on an illegal instruction. Split out pure so the policy is
/// unit-testable without setenv games.
SimdTier ResolveSimdTier(const char* override_str, SimdTier detected);

/// The tier the dominance kernels dispatch to: ResolveSimdTier of
/// getenv("SITFACT_SIMD") and DetectSimdTier(), resolved once on first use
/// and cached for the life of the process.
SimdTier ActiveSimdTier();

/// Lower-case tier name ("scalar" / "avx2"), for logs and the
/// bench JSON trajectory.
const char* SimdTierName(SimdTier tier);

}  // namespace sitfact

#endif  // SITFACT_COMMON_CPU_H_
