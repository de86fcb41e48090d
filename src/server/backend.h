// The seam between LakeServer and whatever actually answers queries.
//
// PR 3's server hard-wired an in-process ShardedLakeIndex; the distributed
// tier needs the same serving front (accept loop, framing, validation,
// batching, graceful shutdown) over a coordinator that talks to shard
// worker processes instead. LakeBackend is that seam: batch query entry
// points returning Result (a distributed backend can fail per-shard), plus
// the shard-worker surface (SHARD_QUERY / HEALTH / SHARD_TABLES) that lets
// any LakeServer also act as one shard of a larger distributed lake.
#ifndef TSFM_SERVER_BACKEND_H_
#define TSFM_SERVER_BACKEND_H_

#include <cstddef>
#include <string>
#include <vector>

#include "search/shard_coordinator.h"
#include "search/sharded_lake_index.h"
#include "server/distributed_lake_index.h"
#include "server/protocol.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::server {

/// \brief What LakeServer serves. All const methods must be
/// const-thread-safe; the mutation entry points (AddTable/RemoveTable/
/// Compact) may run concurrently with queries but are serialized against
/// each other by the backend itself.
class LakeBackend {
 public:
  /// Churn counters reported through the v3 STATS payload.
  using ChurnCounters = LakeChurnCounters;

  virtual ~LakeBackend() = default;

  virtual size_t dim() const = 0;
  virtual size_t num_tables() const = 0;
  virtual size_t num_columns() const = 0;

  /// Human-readable backend kind for logs ("in-process", "distributed").
  virtual const char* kind() const = 0;

  /// One ranked-id list per query column (JOIN batch).
  virtual Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool) const = 0;

  /// One ranked-id list per multi-column query (UNION batch).
  virtual Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool) const = 0;

  /// Raw top-`m` column hits per query column in this backend's handle
  /// space (the SHARD_QUERY opcode). kUnimplemented when this backend is
  /// itself a coordinator — two-level scatter is not supported.
  virtual Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>& columns, size_t m,
      ThreadPool* pool) const = 0;

  /// Table ids in handle order (the SHARD_TABLES opcode).
  virtual Result<std::vector<std::string>> TableIds() const = 0;

  /// Identity/shape counters (the HEALTH opcode).
  virtual ShardHealth Health() const = 0;

  /// Live-ingests one table (the ADD_TABLE opcode). The default backend
  /// serves a frozen lake and answers kUnimplemented.
  virtual Status AddTable(const std::string& table_id,
                          const std::vector<std::vector<float>>& columns) {
    (void)table_id;
    (void)columns;
    return Status::Unimplemented("this backend serves a frozen lake");
  }

  /// Tombstones the newest live table with `table_id` (REMOVE_TABLE).
  virtual Status RemoveTable(const std::string& table_id) {
    (void)table_id;
    return Status::Unimplemented("this backend serves a frozen lake");
  }

  /// Folds deltas + tombstones into the base segments (COMPACT). May fan
  /// the per-shard rebuilds over `pool`.
  virtual Status Compact(ThreadPool* pool) {
    (void)pool;
    return Status::Unimplemented("this backend serves a frozen lake");
  }

  /// Point-in-time churn counters (zeros for a frozen backend).
  virtual ChurnCounters Churn() const { return {}; }
};

/// \brief LakeBackend over a scatter/gather core (search/shard_coordinator.h).
///
/// Every query, mutation and counter of both deployments goes through the
/// one core; the subclasses below only own the facade that built it and
/// say whether SHARD_QUERY is served.
class CoordinatorBackend : public LakeBackend {
 public:
  size_t dim() const override { return core_->dim(); }
  size_t num_tables() const override { return core_->num_tables(); }
  size_t num_columns() const override { return core_->Totals().columns; }

  Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool) const override {
    return core_->QueryJoinableBatch(queries, k, pool);
  }
  Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool) const override {
    return core_->QueryUnionableBatch(queries, k, pool);
  }
  Result<std::vector<std::string>> TableIds() const override {
    return core_->TableIds();
  }
  ShardHealth Health() const override;
  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns) override;
  Status RemoveTable(const std::string& table_id) override {
    return core_->RemoveTable(table_id);
  }
  Status Compact(ThreadPool* pool) override { return core_->Compact(pool); }
  ChurnCounters Churn() const override { return core_->Churn(); }

 protected:
  /// `core` is owned by the subclass's facade, which keeps it at a fixed
  /// address for its whole life (moves included).
  explicit CoordinatorBackend(search::ShardCoordinator* core) : core_(core) {}

  const search::ShardCoordinator& core() const { return *core_; }

 private:
  search::ShardCoordinator* core_;
};

/// \brief LakeBackend over an owned in-process ShardedLakeIndex.
///
/// The single-server deployment, and — over a 1-shard index loaded from
/// one shard file — what a lake_shard_worker process serves.
class InProcessBackend final : public CoordinatorBackend {
 public:
  explicit InProcessBackend(search::ShardedLakeIndex index);

  const search::ShardedLakeIndex& index() const { return index_; }
  const char* kind() const override { return "in-process"; }

  Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>& columns, size_t m,
      ThreadPool* pool) const override;

 private:
  search::ShardedLakeIndex index_;
};

/// \brief LakeBackend over a DistributedLakeIndex coordinator.
///
/// Lets the public LakeServer front a fleet of shard worker processes with
/// the exact same wire surface clients already speak. ShardQuery is
/// rejected (a coordinator is not itself a shard).
class DistributedBackend final : public CoordinatorBackend {
 public:
  explicit DistributedBackend(DistributedLakeIndex index);

  const DistributedLakeIndex& index() const { return index_; }
  const char* kind() const override { return "distributed"; }

  Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>& columns, size_t m,
      ThreadPool* pool) const override;

 private:
  DistributedLakeIndex index_;
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_BACKEND_H_
