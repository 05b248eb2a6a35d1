#ifndef SITFACT_SKYLINE_DOMINANCE_SIMD_H_
#define SITFACT_SKYLINE_DOMINANCE_SIMD_H_

#include <cstddef>

#include "common/cpu.h"
#include "common/types.h"
#include "relation/relation.h"

namespace sitfact {

/// SIMD tiers for the batched Prop.-4 kernels (skyline/dominance_batch.h).
///
/// The kernels all reduce to three column-shaped inner loops; this table
/// holds one function pointer per shape, with scalar and AVX2
/// implementations selected once per process (common/cpu.h). There is no
/// SSE2 tier: GCC already vectorizes the scalar loops with SSE2.
/// Dispatching at the column level keeps the kernel bodies — the
/// per-measure loops, mask handling, ramping, and every call site in
/// skyline/, core/ and exec/ — identical across tiers, so the
/// scalar-vs-SIMD bit-for-bit contract only has to hold for these three
/// primitives.
///
/// Contract (pinned by dominance_batch_test under every tier): each op is
/// bit-identical to its scalar twin in dominance_batch.h's `internal`
/// namespace, including NaN semantics — a NaN on either side of a compare
/// contributes no bit (the vector compares use ordered predicates, so NaN
/// lanes produce a zero mask exactly like the scalar `<`/`>`). Vector
/// bodies use unaligned-tolerant loads after a scalar head peel to the
/// vector alignment, and counts below one vector width (or ragged block
/// tails) finish on the scalar loop — `col + begin` may point anywhere.
struct DominanceColumnOps {
  /// out[i] |= partition bits of `tv` vs src[i], i in [0, count).
  void (*partition_column_range)(const double* src, double tv, size_t count,
                                 MeasureMask bit,
                                 Relation::MeasurePartition* out);
  /// out[i] |= partition bits of `tv` vs col[ids[i]], i in [0, count).
  void (*partition_column_gather)(const double* col, double tv,
                                  const TupleId* ids, size_t count,
                                  MeasureMask bit,
                                  Relation::MeasurePartition* out);
  /// out[i] |= (src[i] == tv) ? bit : 0, i in [0, count).
  void (*agree_column_range)(const ValueId* src, ValueId tv, size_t count,
                             DimMask bit, DimMask* out);
};

/// The op table for one specific tier. Tiers above the machine's detected
/// capability return the highest supported table instead (never an illegal
/// instruction); tests iterate supported tiers through this.
const DominanceColumnOps& DominanceOpsForTier(SimdTier tier);

/// The table the kernels dispatch through: DominanceOpsForTier of
/// ActiveSimdTier(), resolved once on first use.
const DominanceColumnOps& ActiveDominanceOps();

}  // namespace sitfact

#endif  // SITFACT_SKYLINE_DOMINANCE_SIMD_H_
