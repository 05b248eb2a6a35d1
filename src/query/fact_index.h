#ifndef SITFACT_QUERY_FACT_INDEX_H_
#define SITFACT_QUERY_FACT_INDEX_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/engine.h"
#include "core/fact.h"
#include "lattice/constraint.h"
#include "relation/relation.h"

namespace sitfact {

/// Chunked vector with structural sharing, the storage primitive behind the
/// fact index's epoch snapshots. Elements live in fixed-capacity chunks held
/// by shared_ptr; copying a CowVec copies only the chunk-pointer table, so a
/// snapshot of an N-element vector costs O(N / kChunkSize) pointer copies.
///
/// Ownership protocol (the whole concurrency argument): exactly one writer
/// thread mutates a CowVec, and only through PushBack/Mutate. Seal() marks
/// every chunk as shared; after that, the next mutation of a chunk clones it
/// first (copy-on-write), so chunks reachable from a sealed copy are never
/// written again. Readers therefore access snapshot copies without locks:
/// all data reachable from a copy taken after Seal() is immutable.
template <typename T>
class CowVec {
 public:
  static constexpr size_t kChunkSize = 256;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    return (*chunks_[i / kChunkSize])[i % kChunkSize];
  }

  /// Appends one element (writer thread only). Clones the tail chunk when a
  /// sealed copy still shares it.
  void PushBack(T value) {
    const size_t chunk = size_ / kChunkSize;
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::make_shared<Chunk>());
      chunks_.back()->reserve(kChunkSize);
      owned_.push_back(true);
    } else if (!owned_[chunk]) {
      CloneChunk(chunk);
    }
    chunks_[chunk]->push_back(std::move(value));
    ++size_;
  }

  /// Mutable access to element `i` (writer thread only); clones the holding
  /// chunk when it is shared with a sealed copy.
  T& Mutate(size_t i) {
    const size_t chunk = i / kChunkSize;
    if (!owned_[chunk]) CloneChunk(chunk);
    return (*chunks_[chunk])[i % kChunkSize];
  }

  /// Marks every chunk as shared. Call immediately before handing out a
  /// copy; afterwards no chunk reachable from that copy is ever mutated.
  void Seal() { owned_.assign(owned_.size(), false); }

  /// Bytes held by this version's chunks and chunk table (elements' own
  /// heap storage excluded).
  size_t ApproxMemoryBytes() const {
    return chunks_.size() *
           (sizeof(std::shared_ptr<Chunk>) + sizeof(Chunk) +
            kChunkSize * sizeof(T));
  }

 private:
  using Chunk = std::vector<T>;

  void CloneChunk(size_t chunk) {
    // Copy with full capacity up front: the clone happens on the append /
    // mutate hot path, and a bare vector copy would size capacity to fit
    // and reallocate again on the very next PushBack.
    auto clone = std::make_shared<Chunk>();
    clone->reserve(kChunkSize);
    clone->insert(clone->end(), chunks_[chunk]->begin(),
                  chunks_[chunk]->end());
    chunks_[chunk] = std::move(clone);
    owned_[chunk] = true;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  /// owned_[i] == true means chunks_[i] is private to this instance and may
  /// be written in place. Copies inherit the flags but are never mutated
  /// (snapshots are const), so the flags are only meaningful on the writer's
  /// instance.
  std::vector<bool> owned_;
  size_t size_ = 0;
};

/// One indexed fact, materialised on read from its arrival's block: a
/// (C, M) pair discovered for `tuple` at its arrival, with the at-arrival
/// prominence numbers. The index serves the stream of ArrivalReports, so
/// prominence is "as of the arrival that minted the fact" — exactly what
/// the engine reported, not a value that silently drifts as later tuples
/// change the denominators.
///
/// Every fact of an arrival binds the arrival tuple's own values, so a
/// record keeps only C's bound mask: C is the arrival's all-bound
/// constraint restricted to it (FactIndexSnapshot::fact).
struct FactRecord {
  TupleId tuple = 0;
  DimMask bound_mask = 0;      // C's bound attributes
  /// Position of the minting arrival in the ingestion stream (0-based).
  uint64_t arrival_seq = 0;
  uint64_t context_size = 0;   // |σ_C(R)| at arrival
  uint64_t skyline_size = 0;   // |λ_M(σ_C(R))| at arrival
  double prominence = 0.0;     // context_size / skyline_size, 0 when unranked
  MeasureMask subspace = 0;    // M
  /// Member of the arrival's prominent selection (top prominence >= τ).
  bool prominent = false;
  /// False when the engine ran with ranking off; the numbers above are 0.
  bool ranked = false;
  /// Cleared when the owning tuple is removed (or updated away).
  bool live = true;
};

/// What a block stores per fact: C's bound mask, M, and |λ_M(σ_C(R))|.
/// Everything else a FactRecord carries is per arrival or recomputed.
struct PackedFact {
  uint16_t bound_mask = 0;
  uint16_t subspace = 0;
  uint32_t skyline_size = 0;
};
static_assert(sizeof(PackedFact) == 8, "PackedFact must stay 8 bytes");
static_assert(kMaxDimensions <= 16 && kMaxMeasures <= 16,
              "PackedFact stores DimMask and MeasureMask in 16 bits");

/// One arrival's facts, built once on the writer thread and never mutated
/// afterwards, so every snapshot shares it by pointer.
struct ArrivalBlock {
  /// |σ_C(R)| for one bound mask of the arrival (0 when unranked).
  struct ContextSize {
    DimMask bound_mask = 0;
    uint64_t size = 0;
  };

  TupleId tuple = 0;
  /// The tuple's values on every dimension; each fact's constraint is its
  /// restriction to the fact's bound mask.
  Constraint constraint;
  /// Copy of the tuple's row, which narrations render from.
  Row row;
  /// False when the engine ran with ranking off.
  bool ranked = false;
  /// The prominent selection is a prefix of the ranked list (see
  /// SelectProminent): facts [0, prominent_count) are prominent.
  uint32_t prominent_count = 0;
  /// One entry per distinct bound mask among `facts`, sorted by mask.
  std::vector<ContextSize> context_sizes;
  /// The distinct subspaces among `facts`, sorted.
  std::vector<MeasureMask> subspaces;
  /// Report order: the ranked list (prominence descending) when ranked,
  /// the canonical fact list otherwise.
  std::vector<PackedFact> facts;

  uint64_t ContextSizeOf(DimMask bound_mask) const;
  bool HasBoundMask(DimMask bound_mask) const;
  bool HasSubspace(MeasureMask subspace) const;
  /// context / skyline size, the expression RankAll evaluates (so the value
  /// is bit-identical to the report's); 0 when unranked.
  double Prominence(uint32_t i) const;
  /// Heap and object bytes of this block.
  size_t ApproxMemoryBytes() const;
};

/// Conjunctive filter over fact records; default-constructed matches every
/// live record.
struct FactFilter {
  /// Only facts minted for this tuple.
  std::optional<TupleId> tuple;
  /// Exact constraint shape: the record's bound-attribute mask must equal.
  std::optional<DimMask> bound_mask;
  /// Exact measure subspace.
  std::optional<MeasureMask> subspace;
  /// "Facts about": the record's constraint must bind at least these
  /// attribute=value pairs (Def. 5 subsumption — record ⊑ about). The
  /// newsroom query "what is prominent about LeBron" is
  /// about = (player=LeBron).
  std::optional<Constraint> about;
  /// Inclusive arrival-sequence window.
  uint64_t min_arrival = 0;
  uint64_t max_arrival = std::numeric_limits<uint64_t>::max();
  double min_prominence = 0.0;
  bool prominent_only = false;
  /// Also match records of removed tuples.
  bool include_dead = false;
};

/// Resumable position within the TopK order (prominence descending, record
/// id ascending). A cursor names the last record already returned; the next
/// page starts strictly after it. Record ids never reorder and new arrivals
/// only append, so a cursor taken at epoch E remains valid at every later
/// epoch: no old record is ever skipped or repeated (new records that would
/// sort before the cursor are simply not revisited — standard forward-only
/// pagination).
struct TopKCursor {
  double prominence = 0.0;
  uint32_t record_id = 0;
};

/// One TopK page: record ids in (prominence desc, record id asc) order.
/// `next` is set when more matches may exist; a follow-up call may return an
/// empty page with next == nullopt, which ends the scan.
struct TopKResult {
  std::vector<uint32_t> record_ids;
  std::optional<TopKCursor> next;
};

/// An immutable epoch of the fact index. Readers obtain one via
/// FactIndex::Acquire() and query it without any coordination with the
/// writer: every byte reachable from a snapshot is frozen (see CowVec and
/// ArrivalBlock).
class FactIndexSnapshot {
 public:
  /// Per-arrival directory entry. The block's facts hold record ids
  /// [record_begin, record_begin + block->facts.size()).
  struct ArrivalEntry {
    std::shared_ptr<const ArrivalBlock> block;
    uint32_t record_begin = 0;
    /// Cleared when the tuple is removed or its arrival is replayed.
    bool live = true;
  };

  static constexpr uint32_t kNoArrival =
      std::numeric_limits<uint32_t>::max();
  static constexpr int kProminenceBuckets = 64;

  /// Mutations applied when this epoch was published.
  uint64_t epoch() const { return epoch_; }
  /// Arrivals folded in (== the next arrival_seq).
  uint64_t arrivals() const { return arrivals_.size(); }
  size_t fact_count() const { return fact_count_; }

  /// Record `id` (< fact_count()), materialised from its block.
  FactRecord record(uint32_t id) const;
  /// The (C, M) pair of `rec`.
  SkylineFact fact(const FactRecord& rec) const;
  /// News-style sentence for `rec` (FactNarrator), rendered from the
  /// arrival's row copy; never reads the live Relation.
  std::string narration(const FactRecord& rec) const;

  /// Top-k by at-arrival prominence (descending; ties broken by record id
  /// ascending, i.e. arrival order). Served from the log2-bucketed run
  /// index: buckets are walked best-first, each by a merge of its runs,
  /// and the walk stops at the k-th match. A page whose filter pins
  /// `bound_mask` or `subspace` sets `next` exactly when a further match
  /// exists.
  TopKResult TopK(size_t k, const FactFilter& filter = {},
                  const std::optional<TopKCursor>& cursor =
                      std::nullopt) const;

  /// One page of the records minted at `t`'s arrival, in report (record id
  /// ascending) order: start strictly after the cursor's record id, take up
  /// to k, set `next` exactly when a further match exists. Same cursor
  /// contract as TopK (only `record_id` orders these scans).
  TopKResult FactsForTuple(TupleId t, const FactFilter& filter, size_t k,
                           const std::optional<TopKCursor>& cursor =
                               std::nullopt) const;

  /// One page of the records minted by arrivals in
  /// [first_arrival, last_arrival] (inclusive; clamped to the snapshot's
  /// range), record id ascending; same cursor contract as FactsForTuple.
  TopKResult FactsInWindow(uint64_t first_arrival, uint64_t last_arrival,
                           const FactFilter& filter, size_t k,
                           const std::optional<TopKCursor>& cursor =
                               std::nullopt) const;

  /// Arrival seq of tuple `t`, or kNoArrival.
  uint32_t ArrivalOfTuple(TupleId t) const;

  /// Bytes this epoch holds: blocks, runs, the directory and the id maps.
  size_t ApproxMemoryBytes() const;

 private:
  friend class FactIndex;

  /// A contiguous slice [begin, end) of one block's facts that falls in a
  /// single prominence bucket.
  struct Run {
    uint32_t seq = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// The next unserved match of one run in a TopK merge.
  struct Head {
    double prominence;
    uint32_t id;
    uint32_t run;  // index in its bucket
    uint32_t i;    // fact index in its block
    /// Heap order: `a` sorts after `b`, so a heap's front is the best head.
    static bool After(const Head& a, const Head& b);
  };
  /// Moves `head` to the first match of `run` at or after fact `from`;
  /// false when the run has none left.
  bool Advance(const Run& run, uint32_t from, const FactFilter& filter,
               Head* head) const;
  /// Heads for every run of bucket `b` with a match after `cursor`, as a
  /// heap whose front is the best in TopK order.
  void OpenBucket(int b, const FactFilter& filter,
                  const std::optional<TopKCursor>& cursor,
                  std::vector<Head>* heads) const;
  /// Record-id-ascending page over one arrival's facts (FactsForTuple and
  /// FactsInWindow). Returns true when the page is full and `out->next` set.
  bool ScanArrival(uint64_t seq, const FactFilter& filter, size_t k,
                   const std::optional<TopKCursor>& cursor,
                   TopKResult* out) const;

  CowVec<ArrivalEntry> arrivals_;
  size_t fact_count_ = 0;
  /// Sum of ArrivalBlock::ApproxMemoryBytes over arrivals_.
  size_t block_bytes_ = 0;
  /// Names for narrations, copied from the relation at the first arrival.
  std::shared_ptr<const Schema> schema_;
  /// Dimension naming the acting entity in narrations; -1 for none.
  int entity_dim_ = -1;
  /// TupleId -> arrival seq (kNoArrival for ids the index never saw).
  CowVec<uint32_t> tuple_to_arrival_;
  /// Entry j is the arrival seq holding record id j * kRecordStride, so
  /// record() searches only the directory entries between two samples.
  static constexpr uint32_t kRecordStride = 256;
  CowVec<uint32_t> record_samples_;
  /// Fact runs bucketed by floor(log2(prominence)) + 1 (bucket 0 holds
  /// prominence < 1, i.e. unranked facts), in record-id order. A ranked
  /// block is sorted by descending prominence, so it adds at most one run
  /// per bucket, and every run lists its facts in TopK order; an unranked
  /// block is one run in bucket 0. Bucket ranges are disjoint, so walking
  /// buckets high-to-low visits facts in coarse prominence order.
  std::array<CowVec<Run>, kProminenceBuckets> by_prominence_;
  uint64_t epoch_ = 0;
};

/// Secondary index over the stream of discovered facts, maintained
/// incrementally by the single ingestion thread and served to any number of
/// concurrent readers through epoch-versioned immutable snapshots.
///
/// Threading contract: exactly one writer thread calls
/// ApplyArrival/ApplyRemove/ApplyUpdate/Publish (the same thread that drives
/// the discovery engine — FactFeed's worker when the feed is used). Any
/// thread may call Acquire() at any time; the snapshot it returns is frozen
/// forever, so readers never observe a torn epoch. Each arrival's facts sit
/// in one immutable ArrivalBlock that every epoch shares by pointer, so a
/// publish copies only the chunk tables of the directory, the id maps and
/// the run buckets: O((arrivals + runs) / CowVec::kChunkSize) pointer
/// copies plus the chunks touched since the last publish, independent of
/// how many facts an arrival mints.
class FactIndex {
 public:
  struct Options {
    /// Publish a fresh epoch every N applied mutations (>= 1). Readers see
    /// at most N-1 mutations of lag; 1 publishes after every op.
    uint64_t publish_every = 1;
    /// Dimension naming the acting entity for narration; -1 for none.
    int entity_dim = -1;
  };

  /// `relation` must outlive the index and is read only from the writer
  /// thread (each arrival copies its tuple's row out of it).
  FactIndex(const Relation* relation, Options options);
  explicit FactIndex(const Relation* relation)
      : FactIndex(relation, Options()) {}

  FactIndex(const FactIndex&) = delete;
  FactIndex& operator=(const FactIndex&) = delete;

  /// Folds one arrival's report into the index as one block. Facts are
  /// stored in report order: the ranked list when present (prominence
  /// descending), the canonical fact list otherwise.
  void ApplyArrival(const ArrivalReport& report);

  /// Marks tuple `t`'s records dead. Fails when the index never saw `t` or
  /// it is already dead.
  Status ApplyRemove(TupleId t);

  /// Update = remove + re-append (mirrors the engines): kills
  /// `removed_tuple`'s records and folds in the replacement arrival.
  Status ApplyUpdate(TupleId removed_tuple, const ArrivalReport& readded);

  /// Publishes the current state as a fresh epoch regardless of
  /// publish_every (e.g. before a planned handoff).
  void Publish();

  /// Current epoch snapshot; never null. Any thread.
  std::shared_ptr<const FactIndexSnapshot> Acquire() const;

  /// Mutations applied so far (writer thread only; readers use
  /// snapshot->epoch()).
  uint64_t applied_ops() const { return work_.epoch_; }

 private:
  void MaybePublish();
  std::shared_ptr<const ArrivalBlock> BuildBlock(const ArrivalReport& report);

  const Relation* relation_;
  Options options_;

  /// Writer-private builder state; published copies share its chunks.
  FactIndexSnapshot work_;
  uint64_t last_published_epoch_ = 0;
  /// BuildBlock's scratch: one flag per bound mask / subspace, all clear
  /// between arrivals.
  std::vector<uint8_t> mask_seen_;
  std::vector<uint8_t> subspace_seen_;

  mutable std::mutex publish_mu_;
  std::shared_ptr<const FactIndexSnapshot> published_;
};

}  // namespace sitfact

#endif  // SITFACT_QUERY_FACT_INDEX_H_
