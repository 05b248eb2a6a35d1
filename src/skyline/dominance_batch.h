#ifndef SITFACT_SKYLINE_DOMINANCE_BATCH_H_
#define SITFACT_SKYLINE_DOMINANCE_BATCH_H_

#include <algorithm>
#include <cstddef>

#include "common/bits.h"
#include "common/types.h"
#include "relation/relation.h"
#include "skyline/dominance_simd.h"

namespace sitfact {

/// Batched Prop.-4 kernel: measure partitions of one probe tuple against a
/// block of candidates, computed column-wise over the Relation's SoA key
/// columns (relation/measure_store.h) and emitted as better/worse bitmasks
/// into a caller-provided buffer.
///
/// Every variant agrees bit-for-bit with the scalar `Relation::Partition`
/// (same comparisons, same NaN behaviour: a NaN on either side sets
/// neither bit); dominance_batch_test pins that contract. The scalar path
/// evaluates one tuple pair across all measure columns — m dependent,
/// stride-separated loads per pair; these kernels instead stream one column
/// across the whole block, so the candidate keys are consumed at unit
/// stride (range variant) or one gather per column (id-list variant), with
/// branch-free mask assembly.
///
/// The column inner loops dispatch through the SIMD tier table
/// (skyline/dominance_simd.h): an AVX2 intrinsic path selected once per
/// process from cpuid (override with SITFACT_SIMD=scalar|avx2), with the
/// scalar loops below kept verbatim as the bit-identical oracle.
/// The `...With` kernel variants take an explicit op table so tests and
/// benches can pin a tier; the plain names use the active tier.
///
/// Callers process candidate lists in blocks of `kDominanceBlockSize` (a
/// stack buffer; ~2 KiB) and keep their per-tuple consume logic — early
/// exits, counters, bucket rewrites — exactly as in the scalar code, which
/// is how the rewired call sites stay tuple-for-tuple identical to their
/// pre-batch selves.
inline constexpr size_t kDominanceBlockSize = 256;

namespace internal {

/// One column's contribution to a block of partitions — the scalar SIMD
/// tier, and the oracle every vector tier is tested against. Comparisons
/// are written branch-free; with a NaN on either side both compare false
/// and the pair contributes no bit, matching Relation::Partition.
inline void ScalarPartitionColumnRange(const double* src, double tv,
                                       size_t count, MeasureMask bit,
                                       Relation::MeasurePartition* out) {
  for (size_t i = 0; i < count; ++i) {
    double ov = src[i];
    out[i].worse |= (tv < ov) ? bit : 0u;
    out[i].better |= (tv > ov) ? bit : 0u;
  }
}

inline void ScalarPartitionColumnGather(const double* col, double tv,
                                        const TupleId* ids, size_t count,
                                        MeasureMask bit,
                                        Relation::MeasurePartition* out) {
  for (size_t i = 0; i < count; ++i) {
    double ov = col[ids[i]];
    out[i].worse |= (tv < ov) ? bit : 0u;
    out[i].better |= (tv > ov) ? bit : 0u;
  }
}

/// One dimension column's contribution to a block of Def.-8 agreement
/// masks.
inline void ScalarAgreeColumnRange(const ValueId* src, ValueId tv,
                                   size_t count, DimMask bit, DimMask* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] |= (src[i] == tv) ? bit : 0u;
  }
}

}  // namespace internal

/// out[i] = r.Partition(t, candidates[i]) for i in [0, count).
inline void PartitionBatchWith(const DominanceColumnOps& ops,
                               const Relation& r, TupleId t,
                               const TupleId* candidates, size_t count,
                               Relation::MeasurePartition* out) {
  std::fill_n(out, count, Relation::MeasurePartition{});
  const int nm = r.schema().num_measures();
  for (int j = 0; j < nm; ++j) {
    const double* col = r.key_column(j);
    ops.partition_column_gather(col, col[t], candidates, count, 1u << j, out);
  }
}

inline void PartitionBatch(const Relation& r, TupleId t,
                           const TupleId* candidates, size_t count,
                           Relation::MeasurePartition* out) {
  PartitionBatchWith(ActiveDominanceOps(), r, t, candidates, count, out);
}

/// Contiguous-range variant: out[i] = r.Partition(t, begin + i) for
/// begin + i < end. The hot shape for history scans (k-skyband, baselines):
/// pure unit-stride column traversal, no gathers.
inline void PartitionRangeWith(const DominanceColumnOps& ops,
                               const Relation& r, TupleId t, TupleId begin,
                               TupleId end, Relation::MeasurePartition* out) {
  if (end <= begin) return;
  size_t count = end - begin;
  std::fill_n(out, count, Relation::MeasurePartition{});
  const int nm = r.schema().num_measures();
  for (int j = 0; j < nm; ++j) {
    const double* col = r.key_column(j);
    ops.partition_column_range(col + begin, col[t], count, 1u << j, out);
  }
}

inline void PartitionRange(const Relation& r, TupleId t, TupleId begin,
                           TupleId end, Relation::MeasurePartition* out) {
  PartitionRangeWith(ActiveDominanceOps(), r, t, begin, end, out);
}

/// Masked variants: only the measure columns selected by `m` are read, and
/// only their bits can appear in the output (out[i] equals the scalar
/// partition ANDed with m on both sides). For consumers that evaluate a
/// single subspace (C-CSC's per-subspace scans, the lattice bucket passes)
/// this skips the columns the decision cannot depend on.
inline void PartitionBatchMaskedWith(const DominanceColumnOps& ops,
                                     const Relation& r, TupleId t,
                                     const TupleId* candidates, size_t count,
                                     MeasureMask m,
                                     Relation::MeasurePartition* out) {
  std::fill_n(out, count, Relation::MeasurePartition{});
  ForEachBit(m, [&](int j) {
    const double* col = r.key_column(j);
    ops.partition_column_gather(col, col[t], candidates, count, 1u << j, out);
  });
}

inline void PartitionBatchMasked(const Relation& r, TupleId t,
                                 const TupleId* candidates, size_t count,
                                 MeasureMask m,
                                 Relation::MeasurePartition* out) {
  PartitionBatchMaskedWith(ActiveDominanceOps(), r, t, candidates, count, m,
                           out);
}

inline void PartitionRangeMaskedWith(const DominanceColumnOps& ops,
                                     const Relation& r, TupleId t,
                                     TupleId begin, TupleId end, MeasureMask m,
                                     Relation::MeasurePartition* out) {
  if (end <= begin) return;
  size_t count = end - begin;
  std::fill_n(out, count, Relation::MeasurePartition{});
  ForEachBit(m, [&](int j) {
    const double* col = r.key_column(j);
    ops.partition_column_range(col + begin, col[t], count, 1u << j, out);
  });
}

inline void PartitionRangeMasked(const Relation& r, TupleId t, TupleId begin,
                                 TupleId end, MeasureMask m,
                                 Relation::MeasurePartition* out) {
  PartitionRangeMaskedWith(ActiveDominanceOps(), r, t, begin, end, m, out);
}

/// Batched Def.-8 agreement masks: out[i] = r.AgreeMask(t, begin + i),
/// column-wise over the dictionary-encoded dimension columns.
inline void AgreeMaskRangeWith(const DominanceColumnOps& ops,
                               const Relation& r, TupleId t, TupleId begin,
                               TupleId end, DimMask* out) {
  if (end <= begin) return;
  size_t count = end - begin;
  std::fill_n(out, count, DimMask{0});
  const int nd = r.schema().num_dimensions();
  for (int d = 0; d < nd; ++d) {
    const ValueId* col = r.dim_column(d);
    ops.agree_column_range(col + begin, col[t], count, 1u << d, out);
  }
}

inline void AgreeMaskRange(const Relation& r, TupleId t, TupleId begin,
                           TupleId end, DimMask* out) {
  AgreeMaskRangeWith(ActiveDominanceOps(), r, t, begin, end, out);
}

/// Serves `Partition(t, ids[i])` for a forward scan of an id array (a µ
/// bucket, a candidate list) from lazily refilled blocks, so call sites
/// keep their one-entry-at-a-time consume logic — early exits, counters,
/// in-place bucket compaction — while the partitions themselves come from
/// the batched kernel. The id array may be compacted in place below the
/// read cursor during the scan (the lattice bucket-update protocol); ids at
/// and above the cursor must stay untouched until read.
///
/// Blocks ramp geometrically (kDominanceRampStart, ×4 per refill, capped at
/// kDominanceBlockSize): consumers that stop at the first dominator — the
/// common case on skyline scans — waste at most a small first block of
/// lookahead, while full scans converge to wide, vectorizable passes.
///
/// With `unmasked` false only bits of `m` are computed (the pass's own
/// subspace decision needs nothing else); pass true when every bit is
/// needed, e.g. when a sharing observer projects the partition onto other
/// subspaces.
inline constexpr size_t kDominanceRampStart = 8;

/// First block size for a ramped scan over `count` items: small scans fill
/// in a single batch (ramping only pays off when the unconsumed tail it
/// avoids is bigger than the extra refill calls).
inline size_t InitialRampBlock(size_t count) {
  return count <= 4 * kDominanceRampStart ? count : kDominanceRampStart;
}

/// Next block size after `current` (geometric ×4, capped at one buffer).
inline size_t NextRampBlock(size_t current) {
  return std::min(current * 4, kDominanceBlockSize);
}

class BlockedPartitionScan {
 public:
  BlockedPartitionScan(const Relation& r, TupleId t, const TupleId* ids,
                       size_t count, MeasureMask m, bool unmasked)
      : r_(r),
        t_(t),
        ids_(ids),
        count_(count),
        m_(m),
        unmasked_(unmasked),
        next_block_(InitialRampBlock(count)) {}

  BlockedPartitionScan(const BlockedPartitionScan&) = delete;
  BlockedPartitionScan& operator=(const BlockedPartitionScan&) = delete;

  /// Partition of `t` against `ids[i]`; `i < count`. The reference stays
  /// valid until the next at() call.
  const Relation::MeasurePartition& at(size_t i) {
    if (count_ <= kDominanceRampStart) {
      // Tiny scans (the typical µ bucket holds a handful of tuples) are
      // served scalar, pair by pair: batch setup costs more than it saves
      // below one block of work.
      parts_[0] = r_.Partition(t_, ids_[i]);
      if (!unmasked_) {
        parts_[0].worse &= m_;
        parts_[0].better &= m_;
      }
      return parts_[0];
    }
    if (i < block_start_ || i >= block_end_) Refill(i);
    return parts_[i - block_start_];
  }

 private:
  void Refill(size_t i);

  const Relation& r_;
  TupleId t_;
  const TupleId* ids_;
  size_t count_;
  MeasureMask m_;
  bool unmasked_;
  size_t block_start_ = 0;
  size_t block_end_ = 0;  // empty until the first at()
  size_t next_block_;
  Relation::MeasurePartition parts_[kDominanceBlockSize];
};

/// Range twin of BlockedPartitionScan: serves `Partition(t, i)` for a
/// forward scan of the contiguous tuple range [0, limit) with the same
/// ramping, via the gather-free range kernel.
class BlockedPartitionRangeScan {
 public:
  BlockedPartitionRangeScan(const Relation& r, TupleId t, TupleId limit,
                            MeasureMask m)
      : r_(r),
        t_(t),
        limit_(limit),
        m_(m),
        next_block_(static_cast<TupleId>(InitialRampBlock(limit))) {}

  BlockedPartitionRangeScan(const BlockedPartitionRangeScan&) = delete;
  BlockedPartitionRangeScan& operator=(const BlockedPartitionRangeScan&) =
      delete;

  /// Partition of `t` against tuple `i`; `i < limit`. The reference stays
  /// valid until the next at() call.
  const Relation::MeasurePartition& at(TupleId i) {
    if (limit_ <= static_cast<TupleId>(kDominanceRampStart)) {
      parts_[0] = r_.Partition(t_, i);
      parts_[0].worse &= m_;
      parts_[0].better &= m_;
      return parts_[0];
    }
    if (i < block_start_ || i >= block_end_) Refill(i);
    return parts_[i - block_start_];
  }

 private:
  void Refill(TupleId i);

  const Relation& r_;
  TupleId t_;
  TupleId limit_;
  MeasureMask m_;
  TupleId block_start_ = 0;
  TupleId block_end_ = 0;  // empty until the first at()
  TupleId next_block_;
  Relation::MeasurePartition parts_[kDominanceBlockSize];
};

}  // namespace sitfact

#endif  // SITFACT_SKYLINE_DOMINANCE_BATCH_H_
