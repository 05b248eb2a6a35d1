#include "core/narrator.h"

#include <charconv>
#include <cstdio>

#include "common/bits.h"

namespace sitfact {

namespace {

// Readers render a narration per served fact, so the number formatting
// avoids printf where std::to_chars prints the same characters.

void AppendInt(std::string* out, uint64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Measures: integers without decimals, everything else with two.
void AppendMeasure(std::string* out, double v) {
  char buf[32];
  if (v == static_cast<int64_t>(v)) {
    out->append(buf, std::to_chars(buf, buf + sizeof(buf),
                                   static_cast<int64_t>(v))
                         .ptr);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    out->append(buf);
  }
}

}  // namespace

FactNarrator::FactNarrator(const Relation* relation, int entity_dim)
    : relation_(relation), entity_dim_(entity_dim) {}

std::string FactNarrator::Narrate(TupleId t, const RankedFact& fact) const {
  return NarrateRow(relation_->schema(), entity_dim_, relation_->RowOf(t),
                    fact);
}

std::string FactNarrator::NarrateRow(const Schema& schema, int entity_dim,
                                     const Row& row, const RankedFact& fact) {
  std::string out;
  out.reserve(256);
  if (entity_dim >= 0) {
    out += row.dimensions[entity_dim];
    out += " ";
  } else {
    out += "A new tuple ";
  }
  out += "(";
  bool first = true;
  ForEachBit(fact.fact.subspace, [&](int j) {
    if (!first) out += ", ";
    out += schema.measure(j).name;
    out += "=";
    AppendMeasure(&out, row.measures[j]);
    first = false;
  });
  out += ") is undominated on ";
  out += SubspaceToString(schema, fact.fact.subspace);
  out += " among the ";
  AppendInt(&out, fact.context_size);
  out += " tuples with ";
  // Constraint::ToPredicateString's rendering, with the values read from
  // the row instead of the dictionaries.
  const DimMask bound = fact.fact.constraint.bound_mask();
  if (bound == 0) out += "(no constraint)";
  first = true;
  ForEachBit(bound, [&](int d) {
    if (!first) out += " ∧ ";
    out += schema.dimension(d).name;
    out += "=";
    out += row.dimensions[d];
    first = false;
  });
  out += " — one of only ";
  AppendInt(&out, fact.skyline_size);
  out += " such tuples (prominence ";
  // A prominence is at most 2^64, so its one-decimal form always fits.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), fact.prominence,
                                std::chars_format::fixed, 1)
                      .ptr);
  out += ").";
  return out;
}

std::string FactNarrator::Summarize(const RankedFact& fact) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  prominence=%.2f  |ctx|=%llu  |sky|=%llu",
                fact.prominence,
                static_cast<unsigned long long>(fact.context_size),
                static_cast<unsigned long long>(fact.skyline_size));
  return FactToString(*relation_, fact.fact) + buf;
}

}  // namespace sitfact
