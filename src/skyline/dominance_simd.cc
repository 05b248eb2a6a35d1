#include "skyline/dominance_simd.h"

#include <cstdint>

#include "skyline/dominance_batch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SITFACT_X86 1
#endif

namespace sitfact {
namespace {

// The vector paths store {worse, better} pairs as one little-endian 64-bit
// lane per candidate: worse in the low 32 bits, better in the high 32. The
// compare masks (all-ones / all-zero per lane, NaN → zero under the ordered
// predicates) are ANDed with per-column bit vectors and ORed straight into
// the packed pairs — the masks never leave the vector domain, so there is
// no movemask round-trip per column.
static_assert(sizeof(Relation::MeasurePartition) == 8);
static_assert(offsetof(Relation::MeasurePartition, worse) == 0);
static_assert(offsetof(Relation::MeasurePartition, better) == 4);
static_assert(sizeof(TupleId) == 4 && sizeof(ValueId) == 4);

// ---------------------------------------------------------------------------
// Scalar tier: thin wrappers over the verbatim scalar kernels in
// dominance_batch.h, which stay the bit-exact oracle.

void PartitionColumnRangeScalar(const double* src, double tv, size_t count,
                                MeasureMask bit,
                                Relation::MeasurePartition* out) {
  internal::ScalarPartitionColumnRange(src, tv, count, bit, out);
}

void PartitionColumnGatherScalar(const double* col, double tv,
                                 const TupleId* ids, size_t count,
                                 MeasureMask bit,
                                 Relation::MeasurePartition* out) {
  internal::ScalarPartitionColumnGather(col, tv, ids, count, bit, out);
}

void AgreeColumnRangeScalar(const ValueId* src, ValueId tv, size_t count,
                            DimMask bit, DimMask* out) {
  internal::ScalarAgreeColumnRange(src, tv, count, bit, out);
}

constexpr DominanceColumnOps kScalarOps = {
    PartitionColumnRangeScalar,
    PartitionColumnGatherScalar,
    AgreeColumnRangeScalar,
};

#if defined(SITFACT_X86)

// ---------------------------------------------------------------------------
// AVX2 tier: 4 doubles / 8 dimension values per instruction.

__attribute__((target("avx2"))) void PartitionColumnRangeAvx2(
    const double* src, double tv, size_t count, MeasureMask bit,
    Relation::MeasurePartition* out) {
  size_t i = 0;
  // Scalar head peel to 32B source alignment: the measure arena is
  // 64B-aligned at index 0, so an unaligned `begin` lands here.
  for (; i < count && (reinterpret_cast<uintptr_t>(src + i) & 31u) != 0;
       ++i) {
    double ov = src[i];
    out[i].worse |= (tv < ov) ? bit : 0u;
    out[i].better |= (tv > ov) ? bit : 0u;
  }
  const __m256d vt = _mm256_set1_pd(tv);
  const __m256i wbit = _mm256_set1_epi64x(static_cast<long long>(bit));
  const __m256i bbit = _mm256_set1_epi64x(
      static_cast<long long>(static_cast<uint64_t>(bit) << 32));
  for (; i + 4 <= count; i += 4) {
    __m256d ov = _mm256_load_pd(src + i);
    __m256i lt = _mm256_castpd_si256(_mm256_cmp_pd(vt, ov, _CMP_LT_OQ));
    __m256i gt = _mm256_castpd_si256(_mm256_cmp_pd(vt, ov, _CMP_GT_OQ));
    __m256i contrib = _mm256_or_si256(_mm256_and_si256(lt, wbit),
                                      _mm256_and_si256(gt, bbit));
    __m256i* dst = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(dst,
                        _mm256_or_si256(_mm256_loadu_si256(dst), contrib));
  }
  for (; i < count; ++i) {
    double ov = src[i];
    out[i].worse |= (tv < ov) ? bit : 0u;
    out[i].better |= (tv > ov) ? bit : 0u;
  }
}

__attribute__((target("avx2"))) void PartitionColumnGatherAvx2(
    const double* col, double tv, const TupleId* ids, size_t count,
    MeasureMask bit, Relation::MeasurePartition* out) {
  const __m256d vt = _mm256_set1_pd(tv);
  const __m256i wbit = _mm256_set1_epi64x(static_cast<long long>(bit));
  const __m256i bbit = _mm256_set1_epi64x(
      static_cast<long long>(static_cast<uint64_t>(bit) << 32));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Four scalar loads packed per vector, not vgatherdpd: the hardware
    // gather serializes on its index dependency and measured slower than
    // plain loads here; the win of this tier is the 4-wide compare and
    // in-register mask assembly, which packed loads feed just as well.
    __m256d ov = _mm256_set_pd(col[ids[i + 3]], col[ids[i + 2]],
                               col[ids[i + 1]], col[ids[i]]);
    __m256i lt = _mm256_castpd_si256(_mm256_cmp_pd(vt, ov, _CMP_LT_OQ));
    __m256i gt = _mm256_castpd_si256(_mm256_cmp_pd(vt, ov, _CMP_GT_OQ));
    __m256i contrib = _mm256_or_si256(_mm256_and_si256(lt, wbit),
                                      _mm256_and_si256(gt, bbit));
    __m256i* dst = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(dst,
                        _mm256_or_si256(_mm256_loadu_si256(dst), contrib));
  }
  for (; i < count; ++i) {
    double ov = col[ids[i]];
    out[i].worse |= (tv < ov) ? bit : 0u;
    out[i].better |= (tv > ov) ? bit : 0u;
  }
}

__attribute__((target("avx2"))) void AgreeColumnRangeAvx2(const ValueId* src,
                                                          ValueId tv,
                                                          size_t count,
                                                          DimMask bit,
                                                          DimMask* out) {
  const __m256i vt = _mm256_set1_epi32(static_cast<int>(tv));
  const __m256i vbit = _mm256_set1_epi32(static_cast<int>(bit));
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i contrib = _mm256_and_si256(_mm256_cmpeq_epi32(sv, vt), vbit);
    __m256i* dst = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(dst,
                        _mm256_or_si256(_mm256_loadu_si256(dst), contrib));
  }
  for (; i < count; ++i) {
    out[i] |= (src[i] == tv) ? bit : 0u;
  }
}

constexpr DominanceColumnOps kAvx2Ops = {
    PartitionColumnRangeAvx2,
    PartitionColumnGatherAvx2,
    AgreeColumnRangeAvx2,
};

#endif  // SITFACT_X86

}  // namespace

const DominanceColumnOps& DominanceOpsForTier(SimdTier tier) {
#if defined(SITFACT_X86)
  // Clamp to what the machine can actually execute.
  SimdTier detected = DetectSimdTier();
  if (tier > detected) tier = detected;
  switch (tier) {
    case SimdTier::kAvx2:
      return kAvx2Ops;
    case SimdTier::kScalar:
      return kScalarOps;
  }
#else
  (void)tier;
#endif
  return kScalarOps;
}

const DominanceColumnOps& ActiveDominanceOps() {
  static const DominanceColumnOps& ops = DominanceOpsForTier(ActiveSimdTier());
  return ops;
}

}  // namespace sitfact
