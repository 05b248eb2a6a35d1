#include "relation/relation.h"

#include <utility>

#include "common/logging.h"

namespace sitfact {

Relation::Relation(Schema schema)
    : schema_(std::move(schema)), measures_(schema_) {
  int nd = schema_.num_dimensions();
  dicts_.resize(nd);
  dim_cols_.resize(nd);
}

TupleId Relation::Append(const Row& row) {
  SITFACT_CHECK(static_cast<int>(row.dimensions.size()) ==
                schema_.num_dimensions());
  SITFACT_CHECK(static_cast<int>(row.measures.size()) ==
                schema_.num_measures());
  std::vector<ValueId> dims(row.dimensions.size());
  for (size_t i = 0; i < row.dimensions.size(); ++i) {
    dims[i] = dicts_[i].Encode(row.dimensions[i]);
  }
  return AppendEncoded(dims, row.measures);
}

StatusOr<TupleId> Relation::AppendChecked(const Row& row) {
  if (static_cast<int>(row.dimensions.size()) != schema_.num_dimensions()) {
    return Status::InvalidArgument("row dimension arity mismatch");
  }
  if (static_cast<int>(row.measures.size()) != schema_.num_measures()) {
    return Status::InvalidArgument("row measure arity mismatch");
  }
  return Append(row);
}

TupleId Relation::AppendEncoded(const std::vector<ValueId>& dims,
                                const std::vector<double>& measures) {
  SITFACT_CHECK(static_cast<int>(dims.size()) == schema_.num_dimensions());
  SITFACT_CHECK(static_cast<int>(measures.size()) == schema_.num_measures());
  for (int i = 0; i < schema_.num_dimensions(); ++i) {
    SITFACT_DCHECK(dims[i] < dicts_[i].size());
    dim_cols_[i].push_back(dims[i]);
  }
  measures_.Append(measures.data());
  return static_cast<TupleId>(num_tuples_++);
}

void Relation::MarkDeleted(TupleId t) {
  SITFACT_CHECK(t < num_tuples_);
  if (deleted_.size() < num_tuples_) deleted_.resize(num_tuples_, 0);
  if (!deleted_[t]) {
    deleted_[t] = 1;
    ++num_deleted_;
  }
}

DimMask Relation::AgreeMask(TupleId a, TupleId b) const {
  DimMask mask = 0;
  for (int i = 0; i < schema_.num_dimensions(); ++i) {
    if (dim_cols_[i][a] == dim_cols_[i][b]) mask |= (1u << i);
  }
  return mask;
}

Relation::MeasurePartition Relation::Partition(TupleId t,
                                               TupleId other) const {
  MeasurePartition p;
  for (int j = 0; j < schema_.num_measures(); ++j) {
    const double* col = measures_.key_column(j);
    double tv = col[t];
    double ov = col[other];
    if (tv < ov) {
      p.worse |= (1u << j);
    } else if (tv > ov) {
      p.better |= (1u << j);
    }
  }
  return p;
}

Row Relation::RowOf(TupleId t) const {
  Row row;
  row.dimensions.reserve(schema_.num_dimensions());
  for (int d = 0; d < schema_.num_dimensions(); ++d) {
    row.dimensions.push_back(DimString(t, d));
  }
  row.measures.reserve(schema_.num_measures());
  for (int j = 0; j < schema_.num_measures(); ++j) {
    row.measures.push_back(measure(t, j));
  }
  return row;
}

size_t Relation::ApproxMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& c : dim_cols_) bytes += c.capacity() * sizeof(ValueId);
  bytes += measures_.ApproxMemoryBytes();
  for (const auto& d : dicts_) bytes += d.ApproxMemoryBytes();
  return bytes;
}

}  // namespace sitfact
