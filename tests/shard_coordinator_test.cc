// The scatter/gather core (search/shard_coordinator.h), checked through
// both of its facades: ShardedLakeIndex in-process, and a
// DistributedLakeIndex over in-process worker LakeServers (no fork, so the
// suite also runs under TSan). It pins the contracts the shared core adds:
//
//   * a batch of N queries costs each worker exactly one SHARD_QUERY;
//   * a batch too big for one frame splits into several, bit-identically;
//   * a batch of one answers exactly what the unsharded single-query path
//     answers, in every deployment;
//   * queries racing a coordinator Compact never remap post-compaction
//     worker handles through pre-compaction maps (every answer equals the
//     in-process twin's).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "search/lake_index.h"
#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "server/distributed_lake_index.h"
#include "server/lake_server.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace tsfm::server {
namespace {

using search::IndexOptions;
using search::LakeIndex;
using search::LakeShardFileName;
using search::ShardedLakeIndex;
using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::TempFile;

constexpr size_t kDim = 8;

ShardedLakeIndex BuildLake(const Corpus& corpus, size_t shards) {
  ShardedLakeIndex lake(kDim, shards, IndexOptions{});
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    lake.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return lake;
}

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/tsfm_shard_coordinator_test_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A saved lake served by one in-process LakeServer per shard file, with a
/// coordinator connected to them.
class WorkerFleet {
 public:
  WorkerFleet(const ShardedLakeIndex& lake, const std::string& name,
              const DistributedOptions& options = {})
      : manifest_(name) {
    EXPECT_TRUE(lake.Save(manifest_.path()).ok());
    ServerOptions worker_options;
    worker_options.io_threads = 4;
    worker_options.query_threads = 2;
    for (size_t s = 0; s < lake.num_shards(); ++s) {
      auto shard =
          ShardedLakeIndex::Load(LakeShardFileName(manifest_.path(), s));
      EXPECT_TRUE(shard.ok()) << shard.status().ToString();
      workers_.push_back(std::make_unique<LakeServer>(std::move(shard).value(),
                                                      worker_options));
      sockets_.push_back(UniqueSocketPath());
      EXPECT_TRUE(workers_.back()->Start(sockets_.back()).ok());
    }
    auto connected =
        DistributedLakeIndex::Connect(manifest_.path(), sockets_, options);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    coordinator_.emplace(std::move(connected).value());
  }

  ~WorkerFleet() {
    coordinator_.reset();
    for (size_t s = 0; s < workers_.size(); ++s) {
      workers_[s]->Stop();
      ::unlink(sockets_[s].c_str());
    }
  }

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  DistributedLakeIndex& coordinator() { return *coordinator_; }

  /// Query requests each worker has served (SHARD_QUERY frames here).
  std::vector<uint64_t> Requests() const {
    std::vector<uint64_t> requests;
    for (const auto& worker : workers_) {
      requests.push_back(worker->stats().requests);
    }
    return requests;
  }

 private:
  TempFile manifest_;
  std::vector<std::unique_ptr<LakeServer>> workers_;
  std::vector<std::string> sockets_;
  std::optional<DistributedLakeIndex> coordinator_;
};

std::vector<uint64_t> Delta(const std::vector<uint64_t>& after,
                            const std::vector<uint64_t>& before) {
  std::vector<uint64_t> delta(after.size());
  for (size_t s = 0; s < after.size(); ++s) delta[s] = after[s] - before[s];
  return delta;
}

TEST(ShardCoordinatorTest, BatchCostsEachWorkerOneShardQuery) {
  const Corpus corpus = MakeCorpus(60, kDim, 3, /*num_queries=*/16);
  const ShardedLakeIndex lake = BuildLake(corpus, 3);
  WorkerFleet fleet(lake, "core_one_frame.laks");
  ThreadPool pool(3);
  const std::vector<uint64_t> one_each(3, 1);

  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto before = fleet.Requests();
    auto join =
        fleet.coordinator().QueryJoinableBatch(corpus.join_queries, 5, p);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_EQ(join.value(), lake.QueryJoinableBatch(corpus.join_queries, 5));
    EXPECT_EQ(Delta(fleet.Requests(), before), one_each);

    before = fleet.Requests();
    auto united =
        fleet.coordinator().QueryUnionableBatch(corpus.union_queries, 5, p);
    ASSERT_TRUE(united.ok()) << united.status().ToString();
    EXPECT_EQ(united.value(),
              lake.QueryUnionableBatch(corpus.union_queries, 5));
    EXPECT_EQ(Delta(fleet.Requests(), before), one_each);
  }
}

TEST(ShardCoordinatorTest, OversizedBatchSplitsAcrossFramesBitIdentically) {
  const Corpus corpus = MakeCorpus(80, kDim, 5, /*num_queries=*/50);
  const ShardedLakeIndex lake = BuildLake(corpus, 2);
  // At k = 5 each column's response carries up to 15 hits (~244 bytes), so
  // a 4 KiB frame holds about 16 columns: 50 join columns and 100 union
  // columns both need several frames.
  DistributedOptions options;
  options.max_frame_bytes = 4096;
  WorkerFleet fleet(lake, "core_split.laks", options);

  auto before = fleet.Requests();
  auto join = fleet.coordinator().QueryJoinableBatch(corpus.join_queries, 5);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value(), lake.QueryJoinableBatch(corpus.join_queries, 5));
  for (uint64_t frames : Delta(fleet.Requests(), before)) {
    EXPECT_GT(frames, 1u);
    EXPECT_LT(frames, corpus.join_queries.size());
  }

  before = fleet.Requests();
  auto united =
      fleet.coordinator().QueryUnionableBatch(corpus.union_queries, 5);
  ASSERT_TRUE(united.ok()) << united.status().ToString();
  EXPECT_EQ(united.value(), lake.QueryUnionableBatch(corpus.union_queries, 5));
  for (uint64_t frames : Delta(fleet.Requests(), before)) {
    EXPECT_GT(frames, 1u);
    EXPECT_LT(frames, corpus.union_queries.size());
  }
}

TEST(ShardCoordinatorTest, BatchOfOneMatchesTheUnshardedSingleQueryPath) {
  const Corpus corpus = MakeCorpus(50, kDim, 9);
  // The unsharded LakeIndex keeps its own per-query entry points, which
  // the sharded deployments must reproduce bit for bit.
  LakeIndex reference(kDim);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    reference.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  const ShardedLakeIndex lake = BuildLake(corpus, 3);
  WorkerFleet fleet(lake, "core_batch_of_one.laks");
  DistributedLakeIndex& coordinator = fleet.coordinator();

  for (size_t k : {size_t{1}, size_t{5}, size_t{40}}) {
    for (const auto& q : corpus.join_queries) {
      const auto expected = reference.QueryJoinable(q, k);
      EXPECT_EQ(lake.QueryJoinable(q, k), expected);
      EXPECT_EQ(lake.QueryJoinableBatch({q}, k)[0], expected);
      auto remote = coordinator.QueryJoinable(q, k);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      EXPECT_EQ(remote.value(), expected);
    }
    for (const auto& q : corpus.union_queries) {
      const auto expected = reference.QueryUnionable(q, k);
      EXPECT_EQ(lake.QueryUnionable(q, k), expected);
      EXPECT_EQ(lake.QueryUnionableBatch({q}, k)[0], expected);
      auto remote = coordinator.QueryUnionable(q, k);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      EXPECT_EQ(remote.value(), expected);
    }
  }
}

// Workers re-densify their handles during a coordinator Compact; a query
// that remapped those through the pre-compaction maps would name the wrong
// tables with an OK status. Every answer from before, during and after the
// compaction must equal the in-process twin's (flat rankings survive a
// compaction unchanged).
TEST(ShardCoordinatorTest, QueriesRacingCoordinatorCompactMatchTheTwin) {
  const Corpus corpus = MakeCorpus(4000, kDim, 41, /*num_queries=*/20);
  WorkerFleet fleet(BuildLake(corpus, 2), "core_torn_read.laks");
  DistributedLakeIndex& coordinator = fleet.coordinator();
  ShardedLakeIndex twin = BuildLake(corpus, 2);
  twin.Seal();
  for (size_t t = 0; t < corpus.ids.size(); t += 3) {
    ASSERT_TRUE(coordinator.RemoveTable(corpus.ids[t]).ok());
    ASSERT_TRUE(twin.RemoveTable(corpus.ids[t]).ok());
  }
  constexpr size_t kK = 10;
  std::vector<std::vector<std::string>> expected;
  for (const auto& q : corpus.join_queries) {
    expected.push_back(twin.QueryJoinable(q, kK));
  }

  std::atomic<bool> compacted{false};
  std::atomic<int> warmed_up{0};
  std::atomic<size_t> answered{0};
  std::atomic<size_t> wrong{0};
  std::atomic<size_t> failed{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&] {
      // Keep querying until one full pass starts after the compaction.
      for (bool first = true;; first = false) {
        const bool last = compacted.load();
        for (size_t q = 0; q < expected.size(); ++q) {
          auto got = coordinator.QueryJoinable(corpus.join_queries[q], kK);
          if (!got.ok()) {
            failed.fetch_add(1);
          } else if (got.value() != expected[q]) {
            wrong.fetch_add(1);
          }
          answered.fetch_add(1);
          // Pace the queriers: the epoch lock is a reader-preferring
          // rwlock, so three back-to-back readers would starve the
          // Compact's exclusive acquisition for seconds.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        if (first) warmed_up.fetch_add(1);
        if (last) return;
      }
    });
  }
  while (warmed_up.load() < 3) std::this_thread::yield();
  Status compact = coordinator.Compact();
  compacted.store(true);
  for (auto& th : queriers) th.join();

  ASSERT_TRUE(compact.ok()) << compact.ToString();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u) << "of " << answered.load() << " answers";
  ASSERT_TRUE(twin.Compact().ok());
  EXPECT_EQ(coordinator.num_tables(), twin.num_tables());
  for (size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(twin.QueryJoinable(corpus.join_queries[q], kK), expected[q]);
  }
}

}  // namespace
}  // namespace tsfm::server
