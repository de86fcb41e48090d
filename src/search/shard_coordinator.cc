#include "search/shard_coordinator.h"

#include <iterator>

#include "search/lake_index.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {

namespace {

// Shards fan out over `pool` when there is more than one; ParallelFor is
// nest-safe (util/thread_pool.h), so `body` may fan out over `pool` again.
void ForEachShard(ThreadPool* pool, size_t num_shards,
                  const std::function<void(size_t)>& body) {
  if (pool != nullptr && num_shards > 1) {
    ParallelFor(pool, 0, num_shards, body);
  } else {
    for (size_t s = 0; s < num_shards; ++s) body(s);
  }
}

// Rewrites shard `s`'s local table handles as global ones. Local handles
// are insertion-ordered, so the remap is monotone and every list stays
// sorted by (distance, table, column).
Status RemapToGlobal(size_t s, const std::vector<size_t>& to_global,
                     size_t num_queries, HitLists* lists) {
  if (lists->size() != num_queries) {
    return Status::ParseError("shard " + std::to_string(s) + " answered " +
                              std::to_string(lists->size()) +
                              " hit lists for " + std::to_string(num_queries) +
                              " query columns");
  }
  for (auto& hits : *lists) {
    for (auto& hit : hits) {
      if (hit.table_id >= to_global.size()) {
        return Status::ParseError("shard " + std::to_string(s) +
                                  " returned unknown table handle " +
                                  std::to_string(hit.table_id));
      }
      hit.table_id = to_global[hit.table_id];
    }
  }
  return Status::OK();
}

Status Diverged() {
  return Status::Internal(
      "a previous mutation failed in flight and the handle maps may "
      "disagree with the shards; reconnect to recover");
}

}  // namespace

ShardCoordinator::ShardCoordinator(size_t dim, const IndexOptions& options,
                                   std::vector<std::unique_ptr<Shard>> shards)
    : dim_(dim), options_(options), shards_(std::move(shards)) {}

Result<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Create(
    size_t dim, const IndexOptions& options,
    std::vector<std::unique_ptr<Shard>> shards,
    const std::vector<std::pair<size_t, size_t>>& locator) {
  std::unique_ptr<ShardCoordinator> owned(
      new ShardCoordinator(dim, options, std::move(shards)));
  ShardCoordinator& core = *owned;
  const size_t num_shards = core.shards_.size();
  std::vector<std::vector<std::string>> ids(num_shards);
  size_t total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    ids[s] = core.shards_[s]->TableIds();
    total += ids[s].size();
  }
  if (total != locator.size()) {
    return Status::ParseError("table count disagrees with shard files");
  }
  // `core` is not visible to any other thread yet; the lock is uncontended
  // and exists for the checker.
  WriterMutexLock lock(&core.mu_);
  core.to_global_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    core.to_global_[s].assign(ids[s].size(), SIZE_MAX);
  }
  core.global_ids_.reserve(locator.size());
  core.locator_.reserve(locator.size());
  // With the counts equal, "every record is in range and new" means every
  // shard table is claimed exactly once.
  for (const auto& [s, local] : locator) {
    if (s >= num_shards || local >= core.to_global_[s].size() ||
        core.to_global_[s][local] != SIZE_MAX) {
      return Status::ParseError("invalid or duplicate table record");
    }
    core.to_global_[s][local] = core.global_ids_.size();
    core.global_ids_.push_back(std::move(ids[s][local]));
    core.locator_.emplace_back(s, local);
  }
  return owned;
}

// ------------------------------------------------------------- queries

Result<HitLists> ShardCoordinator::SearchLocked(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  if (queries.empty()) return HitLists{};
  const size_t num_shards = shards_.size();
  // The lambda runs on pool threads, where the analysis cannot see this
  // frame's shared lock; bind the guarded map to an alias under the lock.
  const std::vector<std::vector<size_t>>& to_global = to_global_;
  std::vector<Result<HitLists>> per_shard(
      num_shards, Status::Internal("shard not searched"));
  ForEachShard(pool, num_shards, [&](size_t s) {
    Result<HitLists> lists = shards_[s]->SearchBatch(queries, m, pool);
    if (lists.ok()) {
      Status remapped =
          RemapToGlobal(s, to_global[s], queries.size(), &lists.value());
      if (!remapped.ok()) lists = remapped;
    }
    per_shard[s] = std::move(lists);
  });
  for (const auto& lists : per_shard) {
    if (!lists.ok()) return lists.status();
  }

  HitLists merged(queries.size());
  HitLists lists(num_shards);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t s = 0; s < num_shards; ++s) {
      lists[s] = std::move(per_shard[s].value()[q]);
    }
    merged[q] = TableRanker::MergeColumnHits(lists, m);
  }
  return merged;
}

Result<std::vector<std::vector<size_t>>> ShardCoordinator::RankLocked(
    const std::vector<std::vector<float>>& columns,
    const std::vector<size_t>& offsets, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  Result<HitLists> hits = SearchLocked(columns, k * 3, pool);
  if (!hits.ok()) return hits.status();
  const bool join = offsets.empty();
  const size_t num_queries = join ? columns.size() : offsets.size() - 1;
  std::vector<std::vector<size_t>> ranked(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    const size_t exclude = q < excludes.size() ? excludes[q] : SIZE_MAX;
    if (join) {
      ranked[q] =
          TableRanker::RankFromSingleColumnHits(hits.value()[q], exclude);
      continue;
    }
    HitLists per_column(
        std::make_move_iterator(hits.value().begin() + offsets[q]),
        std::make_move_iterator(hits.value().begin() + offsets[q + 1]));
    ranked[q] = TableRanker::RankFromColumnHits(per_column, exclude);
  }
  return ranked;
}

Result<std::vector<std::vector<std::string>>> ShardCoordinator::IdsLocked(
    Result<std::vector<std::vector<size_t>>> ranked, size_t k) const {
  if (!ranked.ok()) return ranked.status();
  std::vector<std::vector<std::string>> out(ranked.value().size());
  for (size_t q = 0; q < out.size(); ++q) {
    out[q] = RankedTableIds(global_ids_, ranked.value()[q], k);
  }
  return out;
}

namespace {

// Every query's columns in one list, so each shard scans its rows once for
// the whole batch; `offsets` (size queries + 1) slices it back per query.
std::vector<std::vector<float>> Flatten(
    const std::vector<std::vector<std::vector<float>>>& queries,
    std::vector<size_t>* offsets) {
  offsets->assign(1, 0);
  std::vector<std::vector<float>> flat;
  for (const auto& query : queries) {
    flat.insert(flat.end(), query.begin(), query.end());
    offsets->push_back(flat.size());
  }
  return flat;
}

}  // namespace

Result<HitLists> ShardCoordinator::SearchColumnHitsBatch(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return SearchLocked(queries, m, pool);
}

Result<std::vector<std::vector<size_t>>> ShardCoordinator::RankJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return RankLocked(query_columns, /*offsets=*/{}, k, excludes, pool);
}

Result<std::vector<std::vector<size_t>>> ShardCoordinator::RankUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  std::vector<size_t> offsets;
  const auto flat = Flatten(queries, &offsets);
  ReaderMutexLock lock(&mu_);
  return RankLocked(flat, offsets, k, excludes, pool);
}

Result<std::vector<std::vector<std::string>>>
ShardCoordinator::QueryJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return IdsLocked(
      RankLocked(query_columns, /*offsets=*/{}, k, /*excludes=*/{}, pool), k);
}

Result<std::vector<std::vector<std::string>>>
ShardCoordinator::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  std::vector<size_t> offsets;
  const auto flat = Flatten(queries, &offsets);
  ReaderMutexLock lock(&mu_);
  return IdsLocked(RankLocked(flat, offsets, k, /*excludes=*/{}, pool), k);
}

// ----------------------------------------------------------- mutations

Result<size_t> ShardCoordinator::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& columns) {
  MutexLock writer(&writer_mu_);
  if (!mutations_.ok()) return mutations_;
  const size_t s = shard_of(table_id);
  size_t handle = 0;
  {
    // Publish the handle before the shard learns the table: no hit can
    // name it until then, so a query in between only sees one more id.
    // The other order would let a query meet a local handle the maps lack.
    WriterMutexLock lock(&mu_);
    handle = global_ids_.size();
    global_ids_.push_back(table_id);
    locator_.emplace_back(s, to_global_[s].size());
    to_global_[s].push_back(handle);
  }
  bool diverged = false;
  Status added = shards_[s]->AddTable(table_id, columns, &diverged);
  if (added.ok()) return handle;
  if (diverged) {
    // The shard may hold the table after all; keep its handle mapped.
    mutations_ = Diverged();
    return added;
  }
  WriterMutexLock lock(&mu_);
  global_ids_.pop_back();
  locator_.pop_back();
  to_global_[s].pop_back();
  return added;
}

Status ShardCoordinator::RemoveTable(const std::string& table_id) {
  MutexLock writer(&writer_mu_);
  if (!mutations_.ok()) return mutations_;
  // A tombstone changes no global maps (the handle stays allocated until
  // the next compaction), so the shard's own locking covers the queries.
  bool diverged = false;
  Status removed =
      shards_[shard_of(table_id)]->RemoveTable(table_id, &diverged);
  if (diverged) mutations_ = Diverged();
  return removed;
}

void ShardCoordinator::Seal() {
  MutexLock writer(&writer_mu_);
  for (const auto& shard : shards_) shard->Seal();
}

Status ShardCoordinator::Compact(ThreadPool* pool) {
  MutexLock writer(&writer_mu_);
  if (!mutations_.ok()) return mutations_;
  const size_t num_shards = shards_.size();

  // Phase 1, shared lock: queries keep running against the old epoch while
  // every shard prepares its compacted image, and the new maps are derived
  // from the shards' remaps. writer_mu_ keeps the maps still throughout.
  std::vector<size_t> survivors;  // old handles that live on, in order
  std::vector<std::pair<size_t, size_t>> new_locator;
  std::vector<std::vector<size_t>> new_to_global(num_shards);
  {
    ReaderMutexLock lock(&mu_);
    std::vector<std::vector<size_t>> remaps(num_shards);
    ForEachShard(pool, num_shards,
                 [&](size_t s) { remaps[s] = shards_[s]->PrepareCompact(); });
    for (size_t s = 0; s < num_shards; ++s) {
      TSFM_CHECK_EQ(remaps[s].size(), to_global_[s].size());
    }
    survivors.reserve(global_ids_.size());
    new_locator.reserve(global_ids_.size());
    for (size_t h = 0; h < global_ids_.size(); ++h) {
      const auto [s, local] = locator_[h];
      const size_t new_local = remaps[s][local];
      if (new_local == SIZE_MAX) continue;  // tombstoned; handle retired
      // Survivors keep their relative order, so the new maps stay dense
      // per shard and global order matches a from-scratch build.
      TSFM_CHECK_EQ(new_to_global[s].size(), new_local);
      new_to_global[s].push_back(survivors.size());
      new_locator.emplace_back(s, new_local);
      survivors.push_back(h);
    }
  }

  // Phase 2, exclusive: every shard commits and the maps swap in one epoch
  // change, so no query remaps new local handles through old maps.
  WriterMutexLock lock(&mu_);
  std::vector<Status> committed(num_shards, Status::OK());
  std::vector<uint8_t> moved(num_shards, 0);
  ForEachShard(pool, num_shards, [&](size_t s) {
    bool diverged = false;
    committed[s] = shards_[s]->CommitCompact(&diverged);
    moved[s] = committed[s].ok() || diverged;
  });
  for (size_t s = 0; s < num_shards; ++s) {
    if (committed[s].ok()) continue;
    // Only a clean sweep of refusals (nothing moved anywhere) leaves the
    // old epoch intact and retryable.
    for (uint8_t m : moved) {
      if (m != 0) mutations_ = Diverged();
    }
    return committed[s];
  }
  std::vector<std::string> new_ids;
  new_ids.reserve(survivors.size());
  for (size_t h : survivors) new_ids.push_back(std::move(global_ids_[h]));
  global_ids_ = std::move(new_ids);
  locator_ = std::move(new_locator);
  to_global_ = std::move(new_to_global);
  ++compactions_;
  return Status::OK();
}

void ShardCoordinator::DisableMutations(Status why) {
  MutexLock writer(&writer_mu_);
  mutations_ = std::move(why);
}

Status ShardCoordinator::WithStableEpoch(
    const std::function<
        Status(const std::vector<std::pair<size_t, size_t>>& locator)>& fn)
    const {
  MutexLock writer(&writer_mu_);
  ReaderMutexLock lock(&mu_);
  return fn(locator_);
}

// ------------------------------------------------------------ counters

size_t ShardCoordinator::num_tables() const {
  ReaderMutexLock lock(&mu_);
  return global_ids_.size();
}

size_t ShardCoordinator::shard_size(size_t s) const {
  ReaderMutexLock lock(&mu_);
  return to_global_[s].size();
}

std::string ShardCoordinator::table_id(size_t handle) const {
  ReaderMutexLock lock(&mu_);
  return global_ids_[handle];
}

std::vector<std::string> ShardCoordinator::TableIds() const {
  ReaderMutexLock lock(&mu_);
  return global_ids_;
}

size_t ShardCoordinator::shard_of(const std::string& table_id) const {
  return StableShard(table_id, shards_.size());
}

ShardCounts ShardCoordinator::Totals() const {
  // Shared lock: a shard's counters must not be read mid-commit.
  ReaderMutexLock lock(&mu_);
  ShardCounts total;
  for (const auto& shard : shards_) {
    const ShardCounts counts = shard->Health();
    total.tables += counts.tables;
    total.columns += counts.columns;
    total.pending_delta_tables += counts.pending_delta_tables;
    total.pending_tombstones += counts.pending_tombstones;
  }
  return total;
}

LakeChurnCounters ShardCoordinator::Churn() const {
  const ShardCounts total = Totals();
  ReaderMutexLock lock(&mu_);
  return {total.pending_delta_tables, total.pending_tombstones, compactions_};
}

}  // namespace tsfm::search
