#ifndef SITFACT_RELATION_RELATION_H_
#define SITFACT_RELATION_RELATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "relation/dictionary.h"
#include "relation/measure_store.h"
#include "relation/schema.h"

namespace sitfact {

/// One input row before encoding: dimension values as strings, measures as
/// doubles, in schema order.
struct Row {
  std::vector<std::string> dimensions;
  std::vector<double> measures;
};

/// Append-only columnar relation R(D; M) (the paper's ever-growing table).
///
/// Dimensions are dictionary-encoded per attribute. Measures live in a
/// structure-of-arrays MeasureColumnStore: the raw value (for display /
/// narration) and a direction-adjusted *key* (negated when the attribute is
/// smaller-is-better) so that dominance is uniformly "larger key is better"
/// on the hot path. Both a per-tuple row view and contiguous per-attribute
/// column views are exposed; the batched dominance kernel
/// (skyline/dominance_batch.h) consumes the latter.
class Relation {
 public:
  explicit Relation(Schema schema);

  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const Schema& schema() const { return schema_; }
  TupleId size() const { return static_cast<TupleId>(num_tuples_); }

  /// Appends a row; returns its TupleId. CHECK-fails on arity mismatch (use
  /// AppendChecked for untrusted input).
  TupleId Append(const Row& row);
  StatusOr<TupleId> AppendChecked(const Row& row);

  /// Appends a pre-encoded row (generator fast path). `dims` are ValueIds
  /// that must have been produced by this relation's dictionaries.
  TupleId AppendEncoded(const std::vector<ValueId>& dims,
                        const std::vector<double>& measures);

  /// Tombstones tuple `t` (deletion extension — the paper's future work).
  /// The row's data stays readable (repair logic needs it) but every
  /// live-data scan skips it. Idempotent.
  void MarkDeleted(TupleId t);
  bool IsDeleted(TupleId t) const {
    return t < deleted_.size() && deleted_[t] != 0;
  }
  /// Number of non-deleted tuples.
  TupleId live_size() const {
    return static_cast<TupleId>(num_tuples_ - num_deleted_);
  }

  /// Dictionary-encoded value of dimension `dim` of tuple `t`.
  ValueId dim(TupleId t, int d) const { return dim_cols_[d][t]; }

  /// Raw (as-ingested) measure value.
  double measure(TupleId t, int j) const { return measures_.raw(j, t); }

  /// Direction-adjusted measure key: larger is always better.
  double measure_key(TupleId t, int j) const { return measures_.key(j, t); }

  /// Columnar views — contiguous arrays of size() entries indexed by
  /// TupleId, valid until the next Append. The SoA/row-view consistency
  /// contract (column[t] == the row accessor for every t, live or deleted)
  /// is pinned by relation_columns_test.
  const double* key_column(int j) const { return measures_.key_column(j); }
  const double* raw_column(int j) const { return measures_.raw_column(j); }
  const ValueId* dim_column(int d) const { return dim_cols_[d].data(); }

  /// String form of dimension `d` of tuple `t`.
  const std::string& DimString(TupleId t, int d) const {
    return dicts_[d].Decode(dim(t, d));
  }

  /// Tuple `t` decoded back to its input form: dimension strings and raw
  /// measures, in schema order.
  Row RowOf(TupleId t) const;

  Dictionary& dictionary(int d) { return dicts_[d]; }
  const Dictionary& dictionary(int d) const { return dicts_[d]; }

  /// Agreement mask between two tuples: bit i set iff a.d_i == b.d_i.
  /// This is the bound set of ⊥(C^{a,b}), the bottom of the lattice
  /// intersection (Def. 8).
  DimMask AgreeMask(TupleId a, TupleId b) const;

  /// Measure-space partition of Prop. 4 from the perspective of tuple `t`
  /// against tuple `other`:
  ///   worse  = {j : t worse than other on j}   (the paper's M<)
  ///   better = {j : t better than other on j}  (the paper's M>)
  /// `t ≺_M other  ⇔  (M ∩ worse) != 0 && (M ∩ better) == 0`.
  struct MeasurePartition {
    MeasureMask worse = 0;
    MeasureMask better = 0;
  };
  MeasurePartition Partition(TupleId t, TupleId other) const;

  /// Approximate heap footprint of the relation columns + dictionaries.
  size_t ApproxMemoryBytes() const;

 private:
  Schema schema_;
  size_t num_tuples_ = 0;
  size_t num_deleted_ = 0;
  std::vector<uint8_t> deleted_;               // tombstones, lazily grown
  std::vector<Dictionary> dicts_;              // one per dimension
  std::vector<std::vector<ValueId>> dim_cols_;  // [dim][tuple]
  MeasureColumnStore measures_;                 // SoA raw + key columns
};

}  // namespace sitfact

#endif  // SITFACT_RELATION_RELATION_H_
