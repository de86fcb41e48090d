// Distributed data-lake index (ROADMAP "Distributed shards"): the
// scatter/gather core (search/shard_coordinator.h) over shards that live in
// other processes. Each shard of a saved "LAKS" lake runs as its own
// lake_shard_worker process serving one shard file over the AF_UNIX wire
// protocol; this coordinator opens only the manifest, handshakes every
// worker, and puts one remote shard per worker behind the same core the
// in-process ShardedLakeIndex uses — same remap, same merge + Fig 6 rank,
// same routing, same locking, same compaction re-densify.
//
// Parity: a batch of queries costs each worker one SHARD_QUERY frame
// carrying every query column (precomputed embeddings, so workers never
// re-embed), split only when a frame would exceed the protocol's column
// cap or DistributedOptions::max_frame_bytes. Each worker answers with its
// sorted top-m column hits in its local handle space, which the core
// remaps through the manifest's locator into the global insertion order —
// so flat-backend results are bit-identical to the in-process sharded
// index over the same shard files (tests/distributed_lake_index_test.cc
// proves this at 1/2/4 workers).
//
// Failure semantics: every per-shard round trip is bounded by
// DistributedOptions::shard_timeout_ms, and a transport failure (worker
// killed, socket gone, timeout) is retried once on a fresh connection.
// When the retry also fails the query returns a Status error *naming the
// shard and its socket* — never a hang, and never a silently partial
// result. Server-side errors (e.g. a dim mismatch) are not retried.
#ifndef TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_
#define TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "search/shard_coordinator.h"
#include "server/protocol.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::server {

/// \brief Coordinator knobs.
///
/// `shard_timeout_ms` bounds each socket send/recv of a worker round trip
/// (a wedged worker — whether it stops writing or stops reading — surfaces
/// as a kIoError naming the shard, not a coordinator hang).
/// `max_idle_connections_per_shard` caps the pooled connections kept warm
/// per worker; concurrent queries above the cap open short-lived extras.
struct DistributedOptions {
  int shard_timeout_ms = 5000;
  size_t max_idle_connections_per_shard = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

using search::LakeChurnCounters;

class RemoteShard;

/// \brief A ShardedLakeIndex-shaped query surface over worker processes.
///
/// Construct with Connect. Query methods mirror ShardedLakeIndex
/// (QueryJoinable/QueryUnionable + batch variants, optional ThreadPool to
/// fan the scatter out over workers) but return Result: a dead or
/// mismatched worker is a recoverable error naming the shard, not a crash.
/// All query methods are const-thread-safe; the connection pools grow on
/// demand. Movable, not copyable.
class DistributedLakeIndex {
 public:
  /// \brief Opens the manifest, handshakes every worker, builds the global
  /// handle space.
  ///
  /// `worker_sockets[s]` must serve shard s of `manifest_path` (one socket
  /// per manifest shard file, same order). The handshake rejects, naming
  /// the shard: a worker that cannot be reached, speaks a different
  /// protocol version, disagrees with the manifest on backend/metric/dim,
  /// or reports a table count that contradicts the manifest's locator.
  ///
  /// Scale ceiling: the handshake fetches each worker's full table-id
  /// list in one SHARD_TABLES frame, so a single shard is limited to the
  /// protocol's 2^20 ids-per-message cap (and `max_frame_bytes` of id
  /// bytes) — far below the manifest format's 2^32-table ceiling that the
  /// in-process loader supports. Lakes beyond ~1M tables per shard need
  /// more shards until the handshake learns to page (see ROADMAP).
  static Result<DistributedLakeIndex> Connect(
      const std::string& manifest_path,
      const std::vector<std::string>& worker_sockets,
      const DistributedOptions& options = {});

  /// Ranked table ids for a join query on a single column.
  Result<std::vector<std::string>> QueryJoinable(
      const std::vector<float>& query_column, size_t k,
      ThreadPool* pool = nullptr) const;

  /// Ranked table ids for a union/subset query (Fig 6 multi-column rank).
  Result<std::vector<std::string>> QueryUnionable(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const;

  /// One QueryJoinable result per query column, from one SHARD_QUERY per
  /// worker (workers fan out over `pool`). Any shard failure fails the
  /// whole batch.
  Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const {
    return core_->QueryJoinableBatch(query_columns, k, pool);
  }

  /// One QueryUnionable result per query; same scatter and failure rules.
  Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool = nullptr) const {
    return core_->QueryUnionableBatch(queries, k, pool);
  }

  /// Fresh HEALTH from every worker, indexed by shard.
  Result<std::vector<ShardHealth>> Health() const;

  /// Worker STATS summed across shards (requests/batches/waits/latency).
  Result<ServerStats> AggregateStats() const;

  /// \brief Live-ingests one table: forwards ADD_TABLE to the owning shard
  /// worker (StableShard routing) and mirrors the new handle locally.
  ///
  /// Mutations through the coordinator require the lake to have been
  /// connected unchurned (a compacted or freshly built manifest): the
  /// handshake cannot see per-handle tombstones, so a churned connect
  /// disables mutations with a clean error. Mutations are never retried —
  /// a transport failure mid-mutation leaves worker and coordinator
  /// bookkeeping possibly diverged, so further mutations are refused until
  /// a fresh Connect (queries stay available).
  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns);

  /// Tombstones the newest live table named `table_id` on its owning shard
  /// and in the local maps. kNotFound when no live table has that id.
  Status RemoveTable(const std::string& table_id) {
    return core_->RemoveTable(table_id);
  }

  /// \brief Sends COMPACT to every worker and re-densifies the global
  /// handle maps to mirror the workers' full rebuilds (survivors keep
  /// their per-shard insertion order).
  ///
  /// Queries wait while the workers compact, so none can remap
  /// post-compaction hits through pre-compaction maps. On a partial
  /// failure the coordinator's maps are left at the old epoch and
  /// mutations are disabled (reconnect to recover) — some workers may have
  /// compacted, so the handle spaces no longer line up.
  Status Compact(ThreadPool* pool = nullptr) { return core_->Compact(pool); }

  /// Churn counters from the per-worker mirrors: seeded by each worker's
  /// STATS at Connect, then advanced by mutations through this coordinator.
  LakeChurnCounters Churn() const { return core_->Churn(); }

  size_t num_shards() const { return core_->num_shards(); }
  size_t num_tables() const { return core_->num_tables(); }
  size_t num_columns() const { return core_->Totals().columns; }
  size_t dim() const { return core_->dim(); }
  /// The id behind a global handle (a copy: the maps may be re-densified
  /// by a concurrent Compact).
  std::string table_id(size_t handle) const { return core_->table_id(handle); }

  /// The scatter/gather core: what a serving backend drives directly.
  search::ShardCoordinator& core() { return *core_; }

 private:
  DistributedLakeIndex(std::unique_ptr<search::ShardCoordinator> core,
                       std::vector<RemoteShard*> shards)
      : core_(std::move(core)), shards_(std::move(shards)) {}

  std::unique_ptr<search::ShardCoordinator> core_;
  // The core owns the shards; these typed views serve Health/Stats.
  std::vector<RemoteShard*> shards_;
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_
