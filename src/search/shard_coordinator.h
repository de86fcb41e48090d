// The one scatter/gather core behind every sharded deployment (paper Sec V
// scaled out): shards behind a narrow Shard interface, the global handle
// maps over them, StableShard routing, and the query path — batched
// scatter, local->global remap, TableRanker::MergeColumnHits, Fig 6 rank.
// ShardedLakeIndex (in-process LakeIndex shards) and
// server::DistributedLakeIndex (worker processes) are thin facades over it.
//
// Each shard numbers its tables densely in insertion order (local handles);
// the core maps them into the lake-wide insertion order (global handles).
// The remap is monotone, so sorted hit lists stay sorted and flat rankings
// are bit-identical to an unsharded LakeIndex.
//
// Lock order: writer_mu_ before mu_ before any shard's own locks. Queries
// hold mu_ shared across scatter + merge + rank, pinning one epoch of the
// maps and of every shard's handle space. Mutations serialize on
// writer_mu_. Compaction is two-phase: shards prepare under the shared
// lock, then commit under the exclusive one together with the map swap, so
// no query remaps post-compaction handles through pre-compaction maps.
#ifndef TSFM_SEARCH_SHARD_COORDINATOR_H_
#define TSFM_SEARCH_SHARD_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "search/table_ranker.h"
#include "search/vector_index.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

/// One hit list per query column, sorted by (distance, table, column).
using HitLists = std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>;

/// Point-in-time churn counters (the shape of the v3 STATS churn fields).
struct LakeChurnCounters {
  uint64_t pending_delta_tables = 0;
  uint64_t pending_tombstones = 0;
  uint64_t compactions = 0;
};

/// What a shard knows about itself without a round trip.
struct ShardCounts {
  size_t tables = 0;  ///< local handle space: live + tombstoned
  size_t columns = 0;
  size_t pending_delta_tables = 0;
  size_t pending_tombstones = 0;
};

/// \brief One shard of a lake, as the ShardCoordinator sees it.
///
/// The core serializes mutations and compaction under its writer lock and
/// calls CommitCompact under its exclusive epoch lock, so no other call
/// overlaps a commit. `*diverged` is set when a failed mutation may still
/// have reached the shard, so the core's maps may no longer match it.
class Shard {
 public:
  virtual ~Shard() = default;

  /// Top-`m` live column hits per query, in this shard's local handles.
  virtual Result<HitLists> SearchBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool) const = 0;

  /// Appends a table. Its local handle is Health().tables before the call.
  virtual Status AddTable(const std::string& table_id,
                          const std::vector<std::vector<float>>& columns,
                          bool* diverged) = 0;

  /// Tombstones the newest live table named `table_id`; kNotFound if none.
  virtual Status RemoveTable(const std::string& table_id, bool* diverged) = 0;

  /// Ends the bulk-build phase (later adds are live churn). Idempotent.
  virtual void Seal() = 0;

  /// Compaction phase 1: prepares the compacted image; returns the
  /// old->new local handle map (SIZE_MAX = tombstoned), survivors in order.
  virtual std::vector<size_t> PrepareCompact() = 0;

  /// Compaction phase 2: makes the prepared image the live one.
  virtual Status CommitCompact(bool* diverged) = 0;

  /// Table ids in local handle order.
  virtual std::vector<std::string> TableIds() const = 0;

  /// Shape and churn counters.
  virtual ShardCounts Health() const = 0;
};

/// \brief Scatter/gather over a fixed list of shards. Not movable; owners
/// hold it behind a unique_ptr so they can move freely.
class ShardCoordinator {
 public:
  /// \brief Adopts `shards` with the global handle space `locator`
  /// (handle -> (shard, local), in lake-wide insertion order).
  ///
  /// kParseError unless the locator claims every shard table exactly once.
  /// `options` describes the shards for Health; the scatter ignores it.
  static Result<std::unique_ptr<ShardCoordinator>> Create(
      size_t dim, const IndexOptions& options,
      std::vector<std::unique_ptr<Shard>> shards,
      const std::vector<std::pair<size_t, size_t>>& locator);

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  // Queries: batch is the only path (a single query is a batch of one),
  // one SearchBatch per shard per batch. `excludes[q]` is a handle dropped
  // from query q's ranking (empty or SIZE_MAX: none).

  /// Global top-`m` column hits per query (scatter + remap + merge).
  Result<HitLists> SearchColumnHitsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool) const LAKS_EXCLUDES(mu_);

  /// Fig 6 join ranking over k*3 column hits, as global handles.
  Result<std::vector<std::vector<size_t>>> RankJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool) const
      LAKS_EXCLUDES(mu_);

  /// Fig 6 multi-column (union/subset) ranking, as global handles.
  Result<std::vector<std::vector<size_t>>> RankUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool) const
      LAKS_EXCLUDES(mu_);

  /// RankJoinableBatch as table ids, truncated to k.
  Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool) const LAKS_EXCLUDES(mu_);

  /// RankUnionableBatch as table ids, truncated to k.
  Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool) const LAKS_EXCLUDES(mu_);

  /// Routes the table to shard StableShard(table_id); returns its handle.
  Result<size_t> AddTable(const std::string& table_id,
                          const std::vector<std::vector<float>>& columns)
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// Tombstones the newest live `table_id`; its handle lives until Compact.
  Status RemoveTable(const std::string& table_id)
      LAKS_EXCLUDES(writer_mu_, mu_);

  void Seal() LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Compacts every shard and re-densifies the maps (survivors keep
  /// their order, so flat rankings match a from-scratch build).
  ///
  /// A failed commit leaves the maps at the old epoch and, if any shard may
  /// have compacted, disables further mutations.
  Status Compact(ThreadPool* pool) LAKS_EXCLUDES(writer_mu_, mu_);

  /// Refuses every later mutation (and compaction) with `why`.
  void DisableMutations(Status why) LAKS_EXCLUDES(writer_mu_);

  /// Runs `fn(locator)` with mutations excluded and one epoch pinned
  /// (queries keep running) — a consistent snapshot for persistence.
  Status WithStableEpoch(
      const std::function<
          Status(const std::vector<std::pair<size_t, size_t>>& locator)>& fn)
      const LAKS_EXCLUDES(writer_mu_, mu_);

  size_t dim() const { return dim_; }
  const IndexOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }
  /// Global handle space: live + tombstoned tables.
  size_t num_tables() const LAKS_EXCLUDES(mu_);
  /// Handles resident in shard `s` (live + tombstoned).
  size_t shard_size(size_t s) const LAKS_EXCLUDES(mu_);
  /// The id behind a global handle (a copy: a compaction may re-densify).
  std::string table_id(size_t handle) const LAKS_EXCLUDES(mu_);
  /// Table ids in global handle order.
  std::vector<std::string> TableIds() const LAKS_EXCLUDES(mu_);
  /// The shard `table_id` routes to.
  size_t shard_of(const std::string& table_id) const;
  /// Every shard's counters, summed.
  ShardCounts Totals() const LAKS_EXCLUDES(mu_);
  /// Pending churn across the shards plus this core's completed Compacts.
  LakeChurnCounters Churn() const LAKS_EXCLUDES(mu_);

 private:
  ShardCoordinator(size_t dim, const IndexOptions& options,
                   std::vector<std::unique_ptr<Shard>> shards);

  Result<HitLists> SearchLocked(const std::vector<std::vector<float>>& queries,
                                size_t m, ThreadPool* pool) const
      LAKS_REQUIRES_SHARED(mu_);
  /// `offsets` slices `columns` into multi-column queries (RANK2); empty
  /// means one join column per query (RANK1).
  Result<std::vector<std::vector<size_t>>> RankLocked(
      const std::vector<std::vector<float>>& columns,
      const std::vector<size_t>& offsets, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool) const
      LAKS_REQUIRES_SHARED(mu_);
  Result<std::vector<std::vector<std::string>>> IdsLocked(
      Result<std::vector<std::vector<size_t>>> ranked, size_t k) const
      LAKS_REQUIRES_SHARED(mu_);

  // dim_, options_ and the shard list are fixed at construction; shards
  // change state only through their own methods, under the locks below.
  const size_t dim_;
  const IndexOptions options_;
  const std::vector<std::unique_ptr<Shard>> shards_;

  mutable Mutex writer_mu_;
  mutable SharedMutex mu_ LAKS_ACQUIRED_AFTER(writer_mu_);

  // handle -> id
  std::vector<std::string> global_ids_ LAKS_GUARDED_BY(mu_);
  // handle -> (shard, local)
  std::vector<std::pair<size_t, size_t>> locator_ LAKS_GUARDED_BY(mu_);
  // shard -> local -> handle
  std::vector<std::vector<size_t>> to_global_ LAKS_GUARDED_BY(mu_);
  uint64_t compactions_ LAKS_GUARDED_BY(mu_) = 0;
  // OK while mutations are allowed; otherwise the refusal to return.
  Status mutations_ LAKS_GUARDED_BY(writer_mu_) = Status::OK();
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_SHARD_COORDINATOR_H_
