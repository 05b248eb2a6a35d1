#ifndef SITFACT_CORE_NARRATOR_H_
#define SITFACT_CORE_NARRATOR_H_

#include <string>

#include "core/fact.h"
#include "relation/relation.h"

namespace sitfact {

/// Renders discovered facts as short news-style sentences (the "narrating
/// facts in natural-language text" the paper lists as the output surface of
/// a computational-journalism pipeline). Example:
///
///   "Player0042 (points=54, rebounds=9) is undominated on {points,
///    rebounds} among the 1203 tuples with team=Blazers — one of only 2
///    such tuples (prominence 601.5)."
class FactNarrator {
 public:
  /// `entity_dim`: index of the dimension naming the acting entity (e.g.
  /// `player`); -1 picks no subject and the sentence starts with the tuple's
  /// measures.
  explicit FactNarrator(const Relation* relation, int entity_dim = -1);

  /// One-sentence narration of a ranked fact for tuple `t`.
  std::string Narrate(TupleId t, const RankedFact& fact) const;

  /// The same sentence rendered from a copy of the tuple's row alone (see
  /// Relation::RowOf), so it never reads a live Relation: the fact index
  /// renders stored facts on read with it. `fact` must bind the row's own
  /// dimension values, as every fact discovered for a tuple does.
  static std::string NarrateRow(const Schema& schema, int entity_dim,
                                const Row& row, const RankedFact& fact);

  /// Compact "(C, M) prominence=p" line for logs.
  std::string Summarize(const RankedFact& fact) const;

 private:
  const Relation* relation_;
  int entity_dim_;
};

}  // namespace sitfact

#endif  // SITFACT_CORE_NARRATOR_H_
