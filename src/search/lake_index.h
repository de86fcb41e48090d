// Persistent data-lake index — the paper's recommended deployment (Sec V):
// embed and index the lake offline; at query time embed only the query
// table and search in embedding space.
//
// The ANN backend (exact flat scan or HNSW) is chosen at construction and
// recorded in the on-disk format, so the online half reopens the index with
// the same behaviour the offline half built it with.
//
// Mutability (ROADMAP "Mutable lakes"): a lake is built in two phases.
// Before Seal(), AddTable appends straight into the base segment — the
// offline bulk build, byte-identical to what this class always did. After
// Seal() (Load seals automatically: a loaded lake is a serving artifact),
// AddTable appends to a small float32 *delta segment* scanned exactly, and
// RemoveTable only marks a *tombstone* — queries filter tombstoned hits
// and merge base + delta candidates, so mutations are visible immediately
// without touching the base storage (whose SQ8 calibration or HNSW graph
// would otherwise degrade under incremental writes). Compact() folds
// deltas + tombstones back into a fresh base; the churn-parity contract is
// that a compacted lake ranks bit-identically (flat backends) to the same
// surviving tables added from scratch in their original order.
//
// Concurrency: queries hold a shared lock for their full duration (they
// pin one epoch of the segment state), AddTable/RemoveTable take brief
// exclusive locks, and Compact rebuilds off-lock — writers excluded by a
// separate writer mutex — then swaps the new segments in under one
// exclusive lock, so a query never observes a half-compacted lake.
#ifndef TSFM_SEARCH_LAKE_INDEX_H_
#define TSFM_SEARCH_LAKE_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/embedder.h"
#include "search/table_ranker.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

/// Maps ranked table handles to their string ids, truncated to `k`.
/// Shared by LakeIndex and the sharded core so the two query surfaces
/// cannot drift.
std::vector<std::string> RankedTableIds(const std::vector<std::string>& table_ids,
                                        const std::vector<size_t>& handles,
                                        size_t k);

/// \brief An offline index of column embeddings for a corpus of tables.
///
/// Build once with AddTable (or from an Embedder over sketches), then
/// answer join / union / subset queries — one at a time or in parallel
/// batches. The index serializes to a compact binary file so the offline
/// and online halves can run in different processes. After Seal() the lake
/// also accepts live AddTable/RemoveTable churn concurrently with queries
/// (see the file comment for the delta/tombstone/compaction lifecycle).
class LakeIndex {
 public:
  explicit LakeIndex(size_t dim, const IndexOptions& options = {});

  /// Moves must not overlap any other operation on either operand (the
  /// same contract as KnnIndex: a moved index re-arms fresh locks).
  LakeIndex(LakeIndex&& other) noexcept;
  LakeIndex& operator=(LakeIndex&& other) noexcept;
  LakeIndex(const LakeIndex&) = delete;
  LakeIndex& operator=(const LakeIndex&) = delete;

  /// Registers a table's column embeddings under a stable string id.
  /// Returns the table's dense index handle. Before Seal() the table joins
  /// the base segment; after, the delta segment. Safe to call concurrently
  /// with queries (not with other mutations of the same sharded wrapper —
  /// ShardedLakeIndex serializes its writers itself).
  size_t AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& column_embeddings)
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Tombstones the most recently added live table named `table_id`.
  ///
  /// The handle stays allocated (handles are never reused between
  /// compactions) but the table vanishes from every query immediately.
  /// kNotFound when no live table has that id.
  Status RemoveTable(const std::string& table_id)
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Ends the bulk-build phase: later AddTable calls go to the
  /// delta segment. Idempotent; Load() and Compact() seal automatically.
  void Seal() LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Folds delta tables and tombstones into a fresh base segment.
  ///
  /// Flat backends (float32 and sq8) always rebuild the base from the
  /// surviving tables in insertion order — for sq8 that retrains the codec
  /// over exactly the rows a from-scratch build would see, which is what
  /// makes post-compaction rankings bit-identical to a rebuild. An HNSW
  /// lake whose tombstone fraction is at most `hnsw_rebuild_threshold`
  /// instead folds in place: delta tables are inserted into the existing
  /// graph and tombstones remain (still filtered at query time), deferring
  /// the expensive graph rebuild until the ratio crosses the threshold.
  /// The default threshold 0 always rebuilds. The heavy rebuild runs
  /// without blocking queries; only the final swap excludes them.
  Status Compact(double hnsw_rebuild_threshold = 0.0)
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// A full from-scratch compaction image plus the old->new handle remap
  /// (SIZE_MAX for tombstoned handles). Used by the sharded lake's shards,
  /// which rebuild off-lock and are swapped in together with the global
  /// handle maps under one exclusive section. Callers must exclude
  /// concurrent mutations (queries may continue). Defined after the class
  /// (it holds a LakeIndex by value).
  struct Compacted;
  Compacted BuildCompacted() const LAKS_EXCLUDES(mu_);

  /// True when Compact(`hnsw_rebuild_threshold`) would fold in place
  /// instead of rebuilding (HNSW under the tombstone threshold).
  bool WouldFoldInPlace(double hnsw_rebuild_threshold) const
      LAKS_EXCLUDES(mu_);

  /// Ranked table ids for a union/subset query (Fig 6 multi-column rank).
  std::vector<std::string> QueryUnionable(
      const std::vector<std::vector<float>>& query_columns, size_t k) const
      LAKS_EXCLUDES(mu_);

  /// Ranked table ids for a join query on a single column.
  std::vector<std::string> QueryJoinable(const std::vector<float>& query_column,
                                         size_t k) const LAKS_EXCLUDES(mu_);

  /// One QueryUnionable result per query, fanned out over `pool` when given.
  std::vector<std::vector<std::string>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// One QueryJoinable result per query column, fanned out over `pool`.
  std::vector<std::vector<std::string>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// \brief Top-`m` live column hits for one query, merged across the base
  /// and delta segments with tombstoned columns filtered out.
  ///
  /// The churn-aware replacement for column_index().SearchColumns: on an
  /// unchurned lake it is exactly that call; on a churned one the base is
  /// over-fetched by the tombstoned-column count so filtering can never
  /// starve the result, and the delta's exact float hits are k-way merged
  /// in by (distance, table, column).
  std::vector<ColumnEmbeddingIndex::ColumnHit> SearchColumns(
      const std::vector<float>& query, size_t m) const LAKS_EXCLUDES(mu_);

  /// Batched SearchColumns; one result list per query, identical to the
  /// serial loop. Fans over `pool` when given.
  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>> SearchColumnsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// Persists the index: versioned header (backend, metric, HNSW knobs),
  /// table ids, per-table embeddings. A churned lake (pending deltas or
  /// tombstones) writes format version 4 with a churn section; unchurned
  /// lakes keep writing version 2 (float32) / 3 (sq8) byte-identically.
  Status Save(const std::string& path) const LAKS_EXCLUDES(mu_);

  /// Loads an index written by Save and seals it. Files from before the
  /// versioned header (magic "LAKE") still load and default to the flat
  /// backend; pre-v4 readers reject churned (v4) files with a clean
  /// "newer format version" Status rather than misparsing them.
  static Result<LakeIndex> Load(const std::string& path);

  /// Handle-space size: live + tombstoned tables (handles stay dense and
  /// allocated until a full compaction re-densifies them).
  size_t num_tables() const LAKS_EXCLUDES(mu_);
  /// True when the lake carries pending deltas or tombstones (the states a
  /// pre-churn on-disk format cannot represent).
  bool churned() const LAKS_EXCLUDES(mu_);
  /// Tables a query can still return.
  size_t num_live_tables() const LAKS_EXCLUDES(mu_);
  /// Columns indexed across base + delta (the ceiling on SearchColumns
  /// results before tombstone filtering).
  size_t num_columns() const LAKS_EXCLUDES(mu_);
  size_t dim() const { return dim_; }
  /// By value: the backing index can be swapped by a concurrent Compact,
  /// so a reference would dangle the moment the shared lock dropped.
  IndexOptions options() const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return index_.options();
  }
  std::string table_id(size_t handle) const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return table_ids_[handle];
  }
  bool is_live(size_t handle) const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return dead_[handle] == 0;
  }

  /// Tables waiting in the delta segment for the next compaction.
  size_t pending_delta_tables() const LAKS_EXCLUDES(mu_);
  /// Tombstoned-but-not-yet-compacted tables.
  size_t pending_tombstones() const LAKS_EXCLUDES(mu_);
  /// Completed Compact calls (in-place folds included).
  uint64_t compactions() const LAKS_EXCLUDES(mu_);

  /// The base-segment column index, keyed by dense table handles. Exposed
  /// for tests and benchmarks; churn-aware callers (ShardedLakeIndex) use
  /// SearchColumns, which also covers the delta segment and tombstones.
  /// The reference is only stable while the caller excludes Compact (which
  /// swaps the backing index) — tests and benches are single-threaded here.
  const ColumnEmbeddingIndex& column_index() const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return index_;
  }

 private:
  bool ChurnedLocked() const LAKS_REQUIRES_SHARED(mu_) {
    return dead_tables_ > 0 || table_ids_.size() > base_tables_;
  }
  std::vector<ColumnEmbeddingIndex::ColumnHit> SearchColumnsLocked(
      const std::vector<float>& query, size_t m) const
      LAKS_REQUIRES_SHARED(mu_);
  std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
  SearchColumnsBatchLocked(const std::vector<std::vector<float>>& queries,
                           size_t m, ThreadPool* pool) const
      LAKS_REQUIRES_SHARED(mu_);
  /// Drops tombstoned hits and truncates to `m` (in place).
  void FilterDeadLocked(std::vector<ColumnEmbeddingIndex::ColumnHit>* hits,
                        size_t m) const LAKS_REQUIRES_SHARED(mu_);
  /// The in-place half of Compact for HNSW lakes under the rebuild
  /// threshold: inserts delta tables into the existing graph, keeps
  /// tombstones.
  void FoldDeltaInPlace() LAKS_EXCLUDES(writer_mu_, mu_);
  /// Moves `other`'s segment state into this index under the caller's
  /// exclusive lock, preserving this index's compaction counter.
  void AdoptLocked(LakeIndex&& other) LAKS_REQUIRES(mu_);
  /// Unanalyzed on purpose: moves must not overlap any other operation on
  /// either operand (the documented move contract), so no lock is held —
  /// there is no lock the analysis could be told about.
  void MoveFieldsFrom(LakeIndex&& other) LAKS_NO_THREAD_SAFETY_ANALYSIS;

  // Lock order: writer_mu_ before mu_. Queries take mu_ shared for their
  // whole duration; mutations take writer_mu_, then mu_ exclusive for the
  // (brief) state change; Compact holds writer_mu_ across its off-lock
  // rebuild so the state it reads without mu_ cannot change under it.
  Mutex writer_mu_;
  mutable SharedMutex mu_ LAKS_ACQUIRED_AFTER(writer_mu_);

  size_t dim_;  // immutable after construction (moves excepted)
  std::vector<std::string> table_ids_ LAKS_GUARDED_BY(mu_);
  // Per-table embeddings.
  std::vector<std::vector<std::vector<float>>> columns_ LAKS_GUARDED_BY(mu_);
  // Base segment: handles [0, base_tables_).
  ColumnEmbeddingIndex index_ LAKS_GUARDED_BY(mu_);

  bool sealed_ LAKS_GUARDED_BY(mu_) = false;
  size_t base_tables_ LAKS_GUARDED_BY(mu_) = 0;
  // Delta segment: float32 flat, by handle.
  std::unique_ptr<ColumnEmbeddingIndex> delta_ LAKS_GUARDED_BY(mu_);
  // Tombstones, by handle.
  std::vector<uint8_t> dead_ LAKS_GUARDED_BY(mu_);
  size_t dead_tables_ LAKS_GUARDED_BY(mu_) = 0;
  // Over-fetch budget for base searches.
  size_t dead_base_columns_ LAKS_GUARDED_BY(mu_) = 0;
  size_t dead_delta_columns_ LAKS_GUARDED_BY(mu_) = 0;
  uint64_t compactions_ LAKS_GUARDED_BY(mu_) = 0;
  // id -> handles bearing it, oldest first (RemoveTable kills the newest
  // live one; duplicate ids are legal, as they always were in AddTable).
  std::unordered_map<std::string, std::vector<size_t>> handles_by_id_
      LAKS_GUARDED_BY(mu_);
};

struct LakeIndex::Compacted {
  LakeIndex index;
  std::vector<size_t> remap;
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_LAKE_INDEX_H_
