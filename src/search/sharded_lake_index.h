// Sharded data-lake index: the LakeIndex deployment partitioned across N
// shards so one lake can exceed a single machine's memory and build time
// (paper Sec V scaled out; ROADMAP "Sharded LakeIndex").
//
// Tables are routed to shards by a stable hash of their string id
// (util/hash.h StableShard), so every column of a table lives in exactly
// one shard and the assignment survives rebuilds. Each shard owns its own
// LakeIndex (flat or HNSW via IndexOptions). Queries, routing, the global
// handle maps and compaction all live in the scatter/gather core
// (search/shard_coordinator.h) that the distributed coordinator shares;
// this class adds in-process LakeIndex shards and persistence. Flat-backend
// results are bit-identical to an unsharded LakeIndex over the same corpus.
//
// On disk the index is a "LAKS" manifest (shard count, backend, metric,
// dim, per-shard file names) next to one "LAK2" LakeIndex file per shard;
// Save and Load handle the shard files in parallel. Legacy single-file
// "LAK2"/"LAKE" indexes load as a 1-shard index, so existing callers can
// switch over behind a --shards knob without a migration.
#ifndef TSFM_SEARCH_SHARDED_LAKE_INDEX_H_
#define TSFM_SEARCH_SHARDED_LAKE_INDEX_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "search/lake_index.h"
#include "search/shard_coordinator.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

class LocalShard;

/// \brief A LakeIndex partitioned across shards with scatter/gather ranking.
///
/// Mirrors the LakeIndex query API (string table ids in, ranked ids out)
/// and adds handle-level Rank*Batch entry points with exclude ids for
/// benchmark drivers. All query methods are const-thread-safe and may
/// overlap AddTable/RemoveTable/Compact (see ShardCoordinator for the
/// epoch locking). The optional ThreadPool fans work out over shards and
/// per-shard query chunks; results are identical to the serial path.
///
/// Like LakeIndex, each shard retains its raw column embeddings so Save
/// can write self-contained shard files; a query-only deployment pays
/// that memory twice (once in the shard, once in its VectorIndex).
class ShardedLakeIndex {
 public:
  /// Creates an empty index of `num_shards` shards (clamped to >= 1), each
  /// owning a VectorIndex configured by `options`.
  ShardedLakeIndex(size_t dim, size_t num_shards, const IndexOptions& options = {});

  // Movable, not copyable. Moves must not overlap any other operation on
  // either operand; the core (and so core()) survives a move unchanged.

  /// Routes the table to its shard by stable hash of `table_id` and
  /// registers its column embeddings. Returns the table's global handle
  /// (dense, in insertion order). Safe to call concurrently with queries;
  /// before any shard is sealed the table joins that shard's base segment
  /// (bulk build), afterwards its delta segment (live ingest).
  size_t AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& column_embeddings);

  /// Tombstones the most recently added live table named `table_id` in its
  /// owning shard. kNotFound when no live table has that id. Safe to call
  /// concurrently with queries.
  Status RemoveTable(const std::string& table_id) {
    return core_->RemoveTable(table_id);
  }

  /// Ends the bulk-build phase on every shard: later AddTable calls land
  /// in delta segments. Idempotent; Load() and Compact() seal.
  void Seal() { core_->Seal(); }

  /// \brief Folds every shard's deltas + tombstones back into its base.
  ///
  /// Churned shards are rebuilt off-lock in parallel over `pool`; the new
  /// shards and the re-densified global handle maps are then swapped in
  /// under one exclusive section, so concurrent queries see either the old
  /// epoch or the new one, never a mix. Post-compaction flat-backend
  /// rankings are bit-identical to a from-scratch build of the surviving
  /// tables in insertion order.
  Status Compact(ThreadPool* pool = nullptr) { return core_->Compact(pool); }

  /// Ranked table ids for a union/subset query (Fig 6 multi-column rank).
  std::vector<std::string> QueryUnionable(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const;

  /// Ranked table ids for a join query on a single column.
  std::vector<std::string> QueryJoinable(const std::vector<float>& query_column,
                                         size_t k,
                                         ThreadPool* pool = nullptr) const;

  /// One QueryUnionable result per query, from one batched scatter.
  std::vector<std::vector<std::string>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool = nullptr) const;

  /// One QueryJoinable result per query column, from one batched scatter.
  std::vector<std::vector<std::string>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const;

  /// \brief Handle-level union/subset ranking with exclude handles.
  ///
  /// Returns global table handles instead of ids and drops `excludes[q]`
  /// from query q's ranking (empty or SIZE_MAX excludes nothing) — the
  /// entry point RunSearch uses, where each query table is itself part of
  /// the corpus.
  std::vector<std::vector<size_t>> RankUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool = nullptr) const;

  /// Handle-level join ranking; `excludes` pairs with `query_columns`.
  std::vector<std::vector<size_t>> RankJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool = nullptr) const;

  /// \brief Persists the index as a "LAKS" manifest plus one shard file.
  ///
  /// `path` names the manifest; shard s is written next to it as
  /// "<basename>.shard-<s>" and recorded in the manifest by that relative
  /// name. Shard files are written in parallel over `pool` when given.
  Status Save(const std::string& path, ThreadPool* pool = nullptr) const;

  /// \brief Loads an index written by Save, shards in parallel over `pool`.
  ///
  /// The manifest records the global handle space, so handles assigned by
  /// AddTable before Save stay valid after Load. A missing shard file, a
  /// truncated manifest, or metadata that contradicts the shard files
  /// yields an error Status. A legacy single-file "LAK2"/"LAKE" index
  /// loads as a 1-shard index.
  static Result<ShardedLakeIndex> Load(const std::string& path,
                                       ThreadPool* pool = nullptr);

  size_t num_shards() const { return core_->num_shards(); }
  /// Global handle-space size: live + tombstoned tables (re-densified by a
  /// full compaction, like LakeIndex handles).
  size_t num_tables() const { return core_->num_tables(); }
  /// Tables a query can still return.
  size_t num_live_tables() const;
  /// Total column count across all shards (the ceiling on a shard query's
  /// hits — a serving layer clamps hostile `m` to it).
  size_t num_columns() const { return core_->Totals().columns; }
  size_t dim() const { return core_->dim(); }
  const IndexOptions& options() const { return core_->options(); }
  /// The id behind a global handle (a copy: the maps may be re-densified
  /// by a concurrent compaction).
  std::string table_id(size_t handle) const { return core_->table_id(handle); }

  /// The shard `table_id` routes to (stable across rebuilds and processes).
  size_t shard_of(const std::string& table_id) const {
    return core_->shard_of(table_id);
  }

  /// Number of tables resident in shard `s` (live + tombstoned).
  size_t shard_size(size_t s) const { return core_->shard_size(s); }

  /// Delta tables across all shards awaiting the next compaction.
  size_t pending_delta_tables() const {
    return core_->Totals().pending_delta_tables;
  }
  /// Tombstoned-but-not-yet-compacted tables across all shards.
  size_t pending_tombstones() const {
    return core_->Totals().pending_tombstones;
  }
  /// Completed Compact calls on this sharded index.
  uint64_t compactions() const { return core_->Churn().compactions; }
  /// True when any shard carries pending deltas or tombstones.
  bool churned() const;

  /// The scatter/gather core: what a serving backend drives directly.
  ShardCoordinator& core() { return *core_; }

 private:
  ShardedLakeIndex(std::unique_ptr<ShardCoordinator> core,
                   std::vector<LocalShard*> shards);
  /// Hands `indexes` to a new core over the handle space `locator`.
  static Result<ShardedLakeIndex> Adopt(
      size_t dim, const IndexOptions& options, std::vector<LakeIndex> indexes,
      const std::vector<std::pair<size_t, size_t>>& locator);

  std::unique_ptr<ShardCoordinator> core_;
  // The core owns the shards; these typed views are for Save.
  std::vector<LocalShard*> shards_;
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_SHARDED_LAKE_INDEX_H_
