#include "search/sharded_lake_index.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>

#include "search/lake_manifest.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {

/// \brief A Shard over an in-process LakeIndex.
///
/// The LakeIndex does its own locking against concurrent queries; the
/// coordinator's locks order the rest (see Shard): CommitCompact replaces
/// the index under the exclusive epoch lock, so no search can be inside it.
class LocalShard final : public Shard {
 public:
  explicit LocalShard(LakeIndex index) : index_(std::move(index)) {}

  const LakeIndex& index() const { return index_; }

  Result<HitLists> SearchBatch(const std::vector<std::vector<float>>& queries,
                               size_t m, ThreadPool* pool) const override {
    // Churn-aware: covers base + delta and filters tombstones.
    return index_.SearchColumnsBatch(queries, m, pool);
  }

  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns,
                  bool* /*diverged*/) override {
    index_.AddTable(table_id, columns);
    return Status::OK();
  }

  Status RemoveTable(const std::string& table_id, bool* /*diverged*/) override {
    return index_.RemoveTable(table_id);
  }

  void Seal() override { index_.Seal(); }

  std::vector<size_t> PrepareCompact() override {
    if (!index_.churned()) {
      prepared_.reset();
      std::vector<size_t> identity(index_.num_tables());
      std::iota(identity.begin(), identity.end(), size_t{0});
      return identity;
    }
    // Survivors re-added in insertion order: the churn-parity contract.
    prepared_ = index_.BuildCompacted();
    return std::move(prepared_->remap);
  }

  Status CommitCompact(bool* /*diverged*/) override {
    if (prepared_.has_value()) {
      index_ = std::move(prepared_->index);
      prepared_.reset();
    } else {
      index_.Seal();  // a compacted lake serves live churn
    }
    return Status::OK();
  }

  std::vector<std::string> TableIds() const override {
    std::vector<std::string> ids(index_.num_tables());
    for (size_t h = 0; h < ids.size(); ++h) ids[h] = index_.table_id(h);
    return ids;
  }

  ShardCounts Health() const override {
    return {index_.num_tables(), index_.num_columns(),
            index_.pending_delta_tables(), index_.pending_tombstones()};
  }

 private:
  LakeIndex index_;
  // Built by PrepareCompact, consumed by CommitCompact.
  std::optional<LakeIndex::Compacted> prepared_;
};

namespace {

// Mirror ColumnEmbeddingIndex's normalization: the HNSW backend stores
// floats whatever the storage knob says, and the manifest must describe
// what the shard files actually contain.
IndexOptions NormalizeShardStorage(IndexOptions options) {
  if (options.backend == IndexBackend::kHnsw) {
    options.storage = Storage::kFloat32;
  }
  return options;
}

// In-process shards cannot fail, so an error here is a program bug.
template <typename T>
T LocalValue(Result<T> result) {
  TSFM_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<LakeIndex> EmptyShards(size_t dim, size_t num_shards,
                                   const IndexOptions& options) {
  std::vector<LakeIndex> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < std::max<size_t>(1, num_shards); ++s) {
    shards.emplace_back(dim, options);
  }
  return shards;
}

}  // namespace

ShardedLakeIndex::ShardedLakeIndex(size_t dim, size_t num_shards,
                                   const IndexOptions& options)
    : ShardedLakeIndex(LocalValue(
          Adopt(dim, NormalizeShardStorage(options),
                EmptyShards(dim, num_shards, NormalizeShardStorage(options)),
                /*locator=*/{}))) {}

ShardedLakeIndex::ShardedLakeIndex(std::unique_ptr<ShardCoordinator> core,
                                   std::vector<LocalShard*> shards)
    : core_(std::move(core)), shards_(std::move(shards)) {}

Result<ShardedLakeIndex> ShardedLakeIndex::Adopt(
    size_t dim, const IndexOptions& options, std::vector<LakeIndex> indexes,
    const std::vector<std::pair<size_t, size_t>>& locator) {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<LocalShard*> views;
  for (LakeIndex& index : indexes) {
    auto shard = std::make_unique<LocalShard>(std::move(index));
    views.push_back(shard.get());
    shards.push_back(std::move(shard));
  }
  auto core =
      ShardCoordinator::Create(dim, options, std::move(shards), locator);
  if (!core.ok()) return core.status();
  return ShardedLakeIndex(std::move(core).value(), std::move(views));
}

size_t ShardedLakeIndex::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& column_embeddings) {
  return LocalValue(core_->AddTable(table_id, column_embeddings));
}

size_t ShardedLakeIndex::num_live_tables() const {
  const ShardCounts total = core_->Totals();
  return total.tables - total.pending_tombstones;
}

bool ShardedLakeIndex::churned() const {
  const ShardCounts total = core_->Totals();
  return total.pending_delta_tables + total.pending_tombstones > 0;
}

std::vector<std::string> ShardedLakeIndex::QueryUnionable(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  return std::move(QueryUnionableBatch({query_columns}, k, pool)[0]);
}

std::vector<std::string> ShardedLakeIndex::QueryJoinable(
    const std::vector<float>& query_column, size_t k, ThreadPool* pool) const {
  return std::move(QueryJoinableBatch({query_column}, k, pool)[0]);
}

std::vector<std::vector<std::string>> ShardedLakeIndex::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  return LocalValue(core_->QueryUnionableBatch(queries, k, pool));
}

std::vector<std::vector<std::string>> ShardedLakeIndex::QueryJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  return LocalValue(core_->QueryJoinableBatch(query_columns, k, pool));
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  return LocalValue(core_->RankUnionableBatch(queries, k, excludes, pool));
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  return LocalValue(core_->RankJoinableBatch(query_columns, k, excludes, pool));
}

Status ShardedLakeIndex::Save(const std::string& path, ThreadPool* pool) const {
  namespace fs = std::filesystem;
  const fs::path manifest_path(path);
  const std::string basename = manifest_path.filename().string();
  const fs::path dir = manifest_path.parent_path();
  const IndexOptions& options = core_->options();

  // Mutations stay excluded (queries do not) for the whole save, so the
  // manifest and the shard files describe one epoch.
  return core_->WithStableEpoch([&](const auto& locator) {
    // Shard files first, in parallel: each one is an independent LakeIndex
    // ("LAK2") image, so a crash mid-save never leaves a manifest pointing
    // at files that were not yet written.
    std::vector<Status> statuses(shards_.size());
    auto save_shard = [&](size_t s) {
      statuses[s] = shards_[s]->index().Save(
          (dir / LakeShardFileName(basename, s)).string());
    };
    if (pool != nullptr && shards_.size() > 1) {
      ParallelFor(pool, 0, shards_.size(), save_shard);
    } else {
      for (size_t s = 0; s < shards_.size(); ++s) save_shard(s);
    }
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }

    LakeManifest manifest;
    manifest.backend = options.backend;
    manifest.metric = options.metric;
    manifest.storage = options.storage;
    manifest.dim = core_->dim();
    size_t live = 0;
    for (const LocalShard* shard : shards_) {
      if (shard->index().churned()) manifest.churned = true;
      live += shard->index().num_live_tables();
    }
    manifest.live_tables = live;
    manifest.shard_files.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      manifest.shard_files.push_back(LakeShardFileName(basename, s));
    }
    // Global handle space: (shard, local) per handle in insertion order —
    // tombstoned handles included, matching the shard files' churn
    // sections — so handles assigned by AddTable stay valid across a
    // save/load round trip (until the next compaction re-densifies them).
    manifest.locator.reserve(locator.size());
    for (const auto& [shard, local] : locator) {
      manifest.locator.emplace_back(static_cast<uint32_t>(shard),
                                    static_cast<uint64_t>(local));
    }
    return SaveLakeManifest(manifest, path);
  });
}

Result<ShardedLakeIndex> ShardedLakeIndex::Load(const std::string& path,
                                                ThreadPool* pool) {
  namespace fs = std::filesystem;
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Status::IoError("cannot open " + path);
  }
  if (!IsLakeManifestFile(path)) {
    // Legacy single-file formats ("LAK2" / "LAKE"): one shard whose local
    // handles are the global ones.
    auto single = LakeIndex::Load(path);
    if (!single.ok()) return single.status();
    std::vector<LakeIndex> shards;
    shards.push_back(std::move(single).value());
    std::vector<std::pair<size_t, size_t>> locator(shards[0].num_tables());
    for (size_t h = 0; h < locator.size(); ++h) locator[h] = {0, h};
    const size_t dim = shards[0].dim();
    const IndexOptions options = shards[0].options();
    return Adopt(dim, options, std::move(shards), locator);
  }

  Result<LakeManifest> parsed = LoadLakeManifest(path);
  if (!parsed.ok()) return parsed.status();
  const LakeManifest manifest = std::move(parsed).value();
  const size_t num_shards = manifest.num_shards();
  const uint64_t dim = manifest.dim;
  const std::vector<std::string>& shard_files = manifest.shard_files;

  // Load the shard files in parallel; each is a self-contained LakeIndex.
  const fs::path dir = fs::path(path).parent_path();
  std::vector<std::optional<Result<LakeIndex>>> loaded(num_shards);
  auto load_shard = [&](size_t s) {
    loaded[s] = LakeIndex::Load((dir / shard_files[s]).string());
  };
  if (pool != nullptr && num_shards > 1) {
    ParallelFor(pool, 0, num_shards, load_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) load_shard(s);
  }

  IndexOptions options;
  options.backend = manifest.backend;
  options.metric = manifest.metric;
  options.storage = manifest.storage;
  std::vector<LakeIndex> shards;
  shards.reserve(num_shards);
  uint64_t total_live_tables = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!loaded[s]->ok()) return loaded[s]->status();
    LakeIndex shard = std::move(*loaded[s]).value();
    if (shard.dim() != dim) {
      return Status::ParseError("shard " + shard_files[s] +
                                " dim disagrees with manifest " + path);
    }
    if (shard.options().backend != options.backend ||
        shard.options().metric != options.metric) {
      return Status::ParseError("shard " + shard_files[s] +
                                " backend/metric disagrees with manifest " +
                                path);
    }
    if (shard.options().storage != options.storage) {
      // A float shard merged into an sq8 lake (or vice versa) would rank
      // with distances from two different spaces; refuse loudly.
      return Status::ParseError(
          "shard " + shard_files[s] + " storage (" +
          (shard.options().storage == Storage::kSq8 ? "sq8" : "float32") +
          ") disagrees with manifest " + path + " (" +
          (options.storage == Storage::kSq8 ? "sq8" : "float32") + ")");
    }
    total_live_tables += shard.num_live_tables();
    shards.push_back(std::move(shard));
  }
  // Churned manifests also pin the live count, catching a manifest paired
  // with shard files from a different compaction epoch.
  if (total_live_tables != manifest.live_tables) {
    return Status::ParseError("lake manifest " + path +
                              " live-table count disagrees with shard files");
  }
  // The shard files carry the HNSW knobs; mirror shard 0's so options()
  // reports what the shards actually use.
  if (!shards.empty()) options.hnsw = shards[0].options().hnsw;

  // The manifest's locator records rebuild the global handle space in its
  // original insertion order; the core checks that they claim every shard
  // table exactly once.
  std::vector<std::pair<size_t, size_t>> locator;
  locator.reserve(manifest.locator.size());
  for (const auto& [shard, local] : manifest.locator) {
    locator.emplace_back(shard, static_cast<size_t>(local));
  }
  auto index = Adopt(static_cast<size_t>(dim), options, std::move(shards),
                     locator);
  if (!index.ok()) {
    return Status(index.status().code(), "lake manifest " + path + ": " +
                                             index.status().message());
  }
  return index;
}

}  // namespace tsfm::search
