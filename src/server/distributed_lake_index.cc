#include "server/distributed_lake_index.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "search/lake_manifest.h"
#include "server/lake_client.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tsfm::server {

using search::HitLists;
using search::ShardCounts;

namespace {

// Bytes a SHARD_QUERY request or response spends outside its per-column
// payload (version, opcode, status, k, counts, dim), rounded up.
constexpr size_t kShardQueryHeaderBytes = 64;
// One ShardHit on the wire: table, column, distance.
constexpr size_t kShardHitBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(float);

// Old->new local handles after a worker's full rebuild: survivors keep
// their insertion order (LakeIndex::BuildCompacted), tombstones retire.
std::vector<size_t> SurvivorRemap(const std::vector<uint8_t>& dead) {
  std::vector<size_t> remap(dead.size(), SIZE_MAX);
  size_t next = 0;
  for (size_t h = 0; h < dead.size(); ++h) {
    if (dead[h] == 0) remap[h] = next++;
  }
  return remap;
}

}  // namespace

/// \brief A Shard served by one worker process over pooled LakeClients.
///
/// Queries are idempotent reads: a transport failure (worker killed,
/// timeout, stale socket) drops the idle pool and retries once on a fresh
/// connection. Mutations go out exactly once. The worker's handle space is
/// mirrored here — ids, tombstones, and its newest-live RemoveTable rule —
/// so the core can route and re-densify without a table-list fetch. Every
/// error names the shard and its socket.
class RemoteShard final : public search::Shard {
 public:
  RemoteShard(size_t index, std::string socket_path,
              const DistributedOptions& options)
      : index_(index),
        socket_path_(std::move(socket_path)),
        options_(options) {}

  /// \brief Checks the worker against the manifest and seeds the mirror.
  ///
  /// Rejects, naming the shard: an unreachable worker, another protocol
  /// version, a backend/metric/dim that contradicts the manifest, or a
  /// table count other than the `expected_tables` the locator routes here.
  /// A churned worker's tombstones are invisible to this handshake, so its
  /// mirror is only good for queries (the facade refuses mutations).
  Status Handshake(const search::LakeManifest& manifest,
                   size_t expected_tables) LAKS_EXCLUDES(mirror_mu_) {
    Result<ShardHealth> health = FetchHealth();
    if (!health.ok()) return health.status();
    const ShardHealth& h = health.value();
    auto reject = [&](const std::string& what) {
      return Annotate(Status::InvalidArgument(what));
    };
    if (h.protocol_version != kProtocolVersion) {
      return reject("worker speaks protocol version " +
                    std::to_string(h.protocol_version) +
                    ", coordinator requires " +
                    std::to_string(kProtocolVersion));
    }
    if (h.dim != manifest.dim) {
      return reject("worker dim " + std::to_string(h.dim) +
                    " disagrees with manifest dim " +
                    std::to_string(manifest.dim));
    }
    if (h.backend != static_cast<uint8_t>(manifest.backend) ||
        h.metric != static_cast<uint8_t>(manifest.metric)) {
      return reject("worker backend/metric disagrees with the manifest");
    }
    if (h.num_tables != expected_tables) {
      return reject("worker holds " + std::to_string(h.num_tables) +
                    " tables, manifest routes " +
                    std::to_string(expected_tables) + " to this shard");
    }
    Result<std::vector<std::string>> tables =
        CallShard([](LakeClient& client) { return client.ShardTables(); });
    if (!tables.ok()) return tables.status();
    if (tables.value().size() != expected_tables) {
      return reject("worker table list disagrees with its health counters");
    }
    Result<ServerStats> stats =
        CallShard([](LakeClient& client) { return client.Stats(); });
    if (!stats.ok()) return stats.status();

    MutexLock lock(&mirror_mu_);
    ids_ = std::move(tables).value();
    dead_.assign(ids_.size(), 0);
    for (size_t local = 0; local < ids_.size(); ++local) {
      live_by_id_[ids_[local]].push_back(local);
    }
    columns_ = static_cast<size_t>(h.num_columns);
    pending_delta_tables_ = stats.value().pending_delta_tables;
    pending_tombstones_ = stats.value().pending_tombstones;
    return Status::OK();
  }

  /// A fresh HEALTH round trip.
  Result<ShardHealth> FetchHealth() const {
    return CallShard([](LakeClient& client) { return client.Health(); });
  }

  /// A fresh STATS round trip.
  Result<ServerStats> FetchStats() const {
    return CallShard([](LakeClient& client) { return client.Stats(); });
  }

  Result<HitLists> SearchBatch(const std::vector<std::vector<float>>& queries,
                               size_t m, ThreadPool* /*pool*/) const override {
    HitLists out;
    if (queries.empty()) return out;
    // The whole batch rides in one frame unless that frame — the request's
    // query columns or the response's hit lists — would pass the codec's
    // column cap or the frame-byte ceiling; then as few frames as fit.
    const size_t hits_per_list =
        std::min(m, options_.max_frame_bytes / kShardHitBytes);
    const size_t column_bytes =
        std::max(queries[0].size() * sizeof(float),
                 sizeof(uint32_t) + hits_per_list * kShardHitBytes);
    const size_t budget =
        options_.max_frame_bytes -
        std::min(options_.max_frame_bytes, kShardQueryHeaderBytes);
    const size_t per_frame = std::clamp<size_t>(
        budget / column_bytes, 1, static_cast<size_t>(kMaxColumns));
    out.reserve(queries.size());
    std::vector<std::vector<float>> slice;
    for (size_t begin = 0; begin < queries.size(); begin += per_frame) {
      const size_t end = std::min(queries.size(), begin + per_frame);
      const std::vector<std::vector<float>>* frame = &queries;
      if (end - begin < queries.size()) {
        slice.assign(queries.begin() + static_cast<std::ptrdiff_t>(begin),
                     queries.begin() + static_cast<std::ptrdiff_t>(end));
        frame = &slice;
      }
      Result<std::vector<std::vector<ShardHit>>> lists = CallShard(
          [&](LakeClient& client) { return client.ShardQuery(*frame, m); });
      if (!lists.ok()) return lists.status();
      if (lists.value().size() != frame->size()) {
        return Annotate(Status::ParseError(
            "worker answered " + std::to_string(lists.value().size()) +
            " hit lists for " + std::to_string(frame->size()) + " columns"));
      }
      for (const auto& list : lists.value()) {
        auto& hits = out.emplace_back();
        hits.reserve(list.size());
        for (const ShardHit& hit : list) {
          hits.push_back({static_cast<size_t>(hit.table), hit.column,
                          hit.distance});
        }
      }
    }
    return out;
  }

  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns,
                  bool* diverged) override {
    Status sent = CallMutation(diverged, [&](LakeClient& client) {
      return client.AddTable(table_id, columns);
    });
    if (!sent.ok()) return sent;
    MutexLock lock(&mirror_mu_);
    live_by_id_[table_id].push_back(ids_.size());
    ids_.push_back(table_id);
    dead_.push_back(0);
    columns_ += columns.size();
    ++pending_delta_tables_;
    return Status::OK();
  }

  Status RemoveTable(const std::string& table_id,
                     bool* diverged) override {
    // Resolve the victim locally first: the mirror follows the worker's
    // newest-live rule, so a miss needs no wire trip.
    size_t victim = 0;
    {
      MutexLock lock(&mirror_mu_);
      auto it = live_by_id_.find(table_id);
      if (it == live_by_id_.end()) {
        return Status::NotFound("no live table with id \"" + table_id + "\"");
      }
      victim = it->second.back();
    }
    Status sent = CallMutation(diverged, [&](LakeClient& client) {
      return client.RemoveTable(table_id);
    });
    if (!sent.ok()) {
      // The worker disagreeing that the table exists is divergence too.
      if (sent.code() == StatusCode::kNotFound) *diverged = true;
      return sent;
    }
    MutexLock lock(&mirror_mu_);
    auto it = live_by_id_.find(table_id);
    it->second.pop_back();
    if (it->second.empty()) live_by_id_.erase(it);
    dead_[victim] = 1;
    ++pending_tombstones_;
    return Status::OK();
  }

  void Seal() override {}  // workers serve loaded, hence sealed, lakes

  std::vector<size_t> PrepareCompact() override {
    // The worker rebuilds churned shards in full, so its remap follows
    // from the mirrored tombstones alone; nothing is sent until commit.
    MutexLock lock(&mirror_mu_);
    return SurvivorRemap(dead_);
  }

  Status CommitCompact(bool* diverged) override {
    Status sent = CallMutation(
        diverged, [](LakeClient& client) { return client.Compact(); });
    if (!sent.ok()) return sent;
    // The worker has compacted: any failure from here on is divergence.
    std::vector<size_t> remap;
    size_t survivors = 0;
    {
      MutexLock lock(&mirror_mu_);
      remap = SurvivorRemap(dead_);
      survivors = static_cast<size_t>(
          std::count(dead_.begin(), dead_.end(), uint8_t{0}));
    }
    Result<ShardHealth> health = FetchHealth();
    if (!health.ok()) {
      *diverged = true;
      return health.status();
    }
    if (health.value().num_tables != survivors) {
      *diverged = true;
      return Annotate(Status::Internal(
          "worker holds " + std::to_string(health.value().num_tables) +
          " tables after compaction, coordinator expected " +
          std::to_string(survivors) + "; reconnect to recover"));
    }
    MutexLock lock(&mirror_mu_);
    std::vector<std::string> ids;
    ids.reserve(survivors);
    for (size_t local = 0; local < ids_.size(); ++local) {
      if (remap[local] != SIZE_MAX) ids.push_back(std::move(ids_[local]));
    }
    ids_ = std::move(ids);
    dead_.assign(ids_.size(), 0);
    for (auto& [id, handles] : live_by_id_) {
      for (size_t& local : handles) local = remap[local];
    }
    columns_ = static_cast<size_t>(health.value().num_columns);
    pending_delta_tables_ = 0;
    pending_tombstones_ = 0;
    return Status::OK();
  }

  std::vector<std::string> TableIds() const override {
    MutexLock lock(&mirror_mu_);
    return ids_;
  }

  ShardCounts Health() const override {
    MutexLock lock(&mirror_mu_);
    return {ids_.size(), columns_, pending_delta_tables_, pending_tombstones_};
  }

 private:
  Status Annotate(const Status& status) const {
    return Status(status.code(), "shard " + std::to_string(index_) + " (" +
                                     socket_path_ + "): " + status.message());
  }

  Result<std::unique_ptr<LakeClient>> Acquire() const LAKS_EXCLUDES(pool_mu_) {
    {
      MutexLock lock(&pool_mu_);
      if (!idle_.empty()) {
        auto client = std::move(idle_.back());
        idle_.pop_back();
        return client;
      }
    }
    auto client = std::make_unique<LakeClient>(options_.max_frame_bytes);
    client->set_timeout_ms(options_.shard_timeout_ms);
    if (Status s = client->Connect(socket_path_); !s.ok()) return s;
    return client;
  }

  void Release(std::unique_ptr<LakeClient> client) const
      LAKS_EXCLUDES(pool_mu_) {
    if (client == nullptr || !client->connected()) return;
    MutexLock lock(&pool_mu_);
    if (idle_.size() < options_.max_idle_connections_per_shard) {
      idle_.push_back(std::move(client));
    }
  }

  // A dead worker invalidates every pooled connection to it at once;
  // dropping them makes a retry connect fresh instead of cycling through
  // stale fds.
  void DropIdle() const LAKS_EXCLUDES(pool_mu_) {
    MutexLock lock(&pool_mu_);
    idle_.clear();
  }

  /// \brief Runs `fn(client)` with retry-once.
  ///
  /// A transport failure (the client closed its connection) retries once
  /// on a fresh connection — only for idempotent reads. A server-side
  /// error (connection still open) is deterministic and returned at once.
  template <typename Fn>
  auto CallShard(Fn&& fn) const
      -> decltype(fn(std::declval<LakeClient&>())) {
    Status last = Status::OK();
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto conn = Acquire();
      if (!conn.ok()) {
        last = conn.status();
        DropIdle();
        continue;
      }
      std::unique_ptr<LakeClient> client = std::move(conn).value();
      auto result = fn(*client);
      const bool transport_failure = !result.ok() && !client->connected();
      Release(std::move(client));
      if (result.ok()) return result;
      if (!transport_failure) return Annotate(result.status());
      last = result.status();
      DropIdle();
    }
    return Annotate(last);
  }

  /// \brief Runs a Status-returning mutation exactly once.
  ///
  /// A transport failure after connecting may have reached the worker, so
  /// it sets `*diverged`; a failure to connect at all leaves it untouched
  /// — the mutation definitely did not happen.
  template <typename Fn>
  Status CallMutation(bool* diverged, Fn&& fn) {
    auto conn = Acquire();
    if (!conn.ok()) {
      DropIdle();
      return Annotate(conn.status());
    }
    std::unique_ptr<LakeClient> client = std::move(conn).value();
    Status status = fn(*client);
    const bool transport_failure = !status.ok() && !client->connected();
    Release(std::move(client));
    if (transport_failure) {
      *diverged = true;
      DropIdle();
    }
    return status.ok() ? status : Annotate(status);
  }

  const size_t index_;
  const std::string socket_path_;
  const DistributedOptions options_;

  mutable Mutex pool_mu_;
  mutable std::vector<std::unique_ptr<LakeClient>> idle_
      LAKS_GUARDED_BY(pool_mu_);

  // The mirror of the worker's handle space. Only mutations and
  // compaction write it (the core's writer lock serializes those); Health
  // and TableIds read it from any thread.
  mutable Mutex mirror_mu_;
  std::vector<std::string> ids_ LAKS_GUARDED_BY(mirror_mu_);  // local -> id
  std::vector<uint8_t> dead_ LAKS_GUARDED_BY(mirror_mu_);     // local -> dead?
  // id -> live local handles, oldest first (RemoveTable kills the newest).
  std::unordered_map<std::string, std::vector<size_t>> live_by_id_
      LAKS_GUARDED_BY(mirror_mu_);
  size_t columns_ LAKS_GUARDED_BY(mirror_mu_) = 0;
  size_t pending_delta_tables_ LAKS_GUARDED_BY(mirror_mu_) = 0;
  size_t pending_tombstones_ LAKS_GUARDED_BY(mirror_mu_) = 0;
};

Result<DistributedLakeIndex> DistributedLakeIndex::Connect(
    const std::string& manifest_path,
    const std::vector<std::string>& worker_sockets,
    const DistributedOptions& options) {
  Result<search::LakeManifest> parsed =
      search::LoadLakeManifest(manifest_path);
  if (!parsed.ok()) return parsed.status();
  const search::LakeManifest manifest = std::move(parsed).value();
  const size_t num_shards = manifest.num_shards();
  if (worker_sockets.size() != num_shards) {
    return Status::InvalidArgument(
        "manifest " + manifest_path + " has " + std::to_string(num_shards) +
        " shards but " + std::to_string(worker_sockets.size()) +
        " worker sockets were given");
  }

  // The locator routes each table to a shard; each worker must hold
  // exactly that many before the global handle space can be trusted.
  std::vector<size_t> expected_counts(num_shards, 0);
  std::vector<std::pair<size_t, size_t>> locator;
  locator.reserve(manifest.locator.size());
  for (const auto& [shard, local] : manifest.locator) {
    ++expected_counts[shard];
    locator.emplace_back(shard, static_cast<size_t>(local));
  }
  std::vector<std::unique_ptr<search::Shard>> shards;
  std::vector<RemoteShard*> views;
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<RemoteShard>(s, worker_sockets[s], options);
    if (Status st = shard->Handshake(manifest, expected_counts[s]); !st.ok()) {
      return st;
    }
    views.push_back(shard.get());
    shards.push_back(std::move(shard));
  }

  search::IndexOptions index_options;
  index_options.backend = manifest.backend;
  index_options.metric = manifest.metric;
  index_options.storage = manifest.storage;
  auto core = search::ShardCoordinator::Create(
      static_cast<size_t>(manifest.dim), index_options, std::move(shards),
      locator);
  if (!core.ok()) {
    return Status(core.status().code(), "lake manifest " + manifest_path +
                                            ": " + core.status().message());
  }
  // A churned manifest means the workers carry tombstones the handshake
  // cannot see, so the mirrors' newest-live bookkeeping would diverge from
  // theirs: serve queries, refuse mutations.
  if (manifest.live_tables < manifest.num_tables()) {
    core.value()->DisableMutations(Status::InvalidArgument(
        "coordinator connected to a churned manifest; compact the lake "
        "before serving mutations through a coordinator"));
  }
  return DistributedLakeIndex(std::move(core).value(), std::move(views));
}

Result<std::vector<std::string>> DistributedLakeIndex::QueryJoinable(
    const std::vector<float>& query_column, size_t k, ThreadPool* pool) const {
  auto ranked = core_->QueryJoinableBatch({query_column}, k, pool);
  if (!ranked.ok()) return ranked.status();
  return std::move(ranked.value()[0]);
}

Result<std::vector<std::string>> DistributedLakeIndex::QueryUnionable(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  auto ranked = core_->QueryUnionableBatch({query_columns}, k, pool);
  if (!ranked.ok()) return ranked.status();
  return std::move(ranked.value()[0]);
}

Status DistributedLakeIndex::AddTable(
    const std::string& table_id, const std::vector<std::vector<float>>& columns) {
  Result<size_t> handle = core_->AddTable(table_id, columns);
  return handle.ok() ? Status::OK() : handle.status();
}

Result<std::vector<ShardHealth>> DistributedLakeIndex::Health() const {
  std::vector<ShardHealth> health(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<ShardHealth> one = shards_[s]->FetchHealth();
    if (!one.ok()) return one.status();
    health[s] = std::move(one).value();
  }
  return health;
}

Result<ServerStats> DistributedLakeIndex::AggregateStats() const {
  ServerStats total;
  for (const RemoteShard* shard : shards_) {
    Result<ServerStats> one = shard->FetchStats();
    if (!one.ok()) return one.status();
    const ServerStats& stats = one.value();
    total.requests += stats.requests;
    total.batches += stats.batches;
    total.max_batch = std::max(total.max_batch, stats.max_batch);
    total.total_queue_wait_ms += stats.total_queue_wait_ms;
    total.total_latency_ms += stats.total_latency_ms;
    total.pending_delta_tables += stats.pending_delta_tables;
    total.pending_tombstones += stats.pending_tombstones;
    total.compactions += stats.compactions;
  }
  return total;
}

}  // namespace tsfm::server
