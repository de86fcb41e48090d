#include "server/backend.h"

#include <utility>

namespace tsfm::server {

ShardHealth CoordinatorBackend::Health() const {
  ShardHealth health;
  health.protocol_version = kProtocolVersion;
  health.backend = static_cast<uint8_t>(core_->options().backend);
  health.metric = static_cast<uint8_t>(core_->options().metric);
  health.dim = core_->dim();
  health.num_tables = core_->num_tables();
  health.num_columns = core_->Totals().columns;
  return health;
}

Status CoordinatorBackend::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& columns) {
  Result<size_t> handle = core_->AddTable(table_id, columns);
  return handle.ok() ? Status::OK() : handle.status();
}

// The base keeps a pointer to the facade's core, which lives behind a
// unique_ptr and so stays put when the facade moves into index_.
InProcessBackend::InProcessBackend(search::ShardedLakeIndex index)
    : CoordinatorBackend(&index.core()), index_(std::move(index)) {
  // A served lake is a live artifact: tables ingested from here on are
  // churn (delta segments + tombstones), not bulk build, on every shard.
  index_.Seal();
}

Result<std::vector<std::vector<ShardHit>>> InProcessBackend::ShardQuery(
    const std::vector<std::vector<float>>& columns, size_t m,
    ThreadPool* pool) const {
  // One batched scatter for all columns in the frame: each shard streams
  // its rows once for the whole SHARD_QUERY instead of once per column.
  auto merged = core().SearchColumnHitsBatch(columns, m, pool);
  if (!merged.ok()) return merged.status();
  std::vector<std::vector<ShardHit>> hits(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    hits[c].reserve(merged.value()[c].size());
    for (const auto& hit : merged.value()[c]) {
      hits[c].push_back({static_cast<uint64_t>(hit.table_id),
                         static_cast<uint32_t>(hit.column_index),
                         hit.distance});
    }
  }
  return hits;
}

DistributedBackend::DistributedBackend(DistributedLakeIndex index)
    : CoordinatorBackend(&index.core()), index_(std::move(index)) {}

Result<std::vector<std::vector<ShardHit>>> DistributedBackend::ShardQuery(
    const std::vector<std::vector<float>>& /*columns*/, size_t /*m*/,
    ThreadPool* /*pool*/) const {
  return Status::Unimplemented(
      "this server fronts a distributed coordinator; it is not itself a "
      "shard worker");
}

}  // namespace tsfm::server
