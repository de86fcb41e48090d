#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "loadgen.h"
#include "search/lake_index.h"
#include "search/table_ranker.h"
#include "server/distributed_lake_index.h"
#include "server/lake_client.h"
#include "server/protocol.h"
#include "sketch/table_sketch.h"
#include "table/csv.h"
#include "util/thread_pool.h"

namespace perfbench {

using tsfm::Status;
using tsfm::search::ColumnEmbeddingIndex;
using tsfm::search::LakeIndex;
using tsfm::search::TableRanker;
using Hit = ColumnEmbeddingIndex::ColumnHit;
using HitLists = std::vector<std::vector<Hit>>;

void Metrics::Put(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

uint64_t SpanLog::Open(const char* name, uint64_t parent) {
  uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, name, NowS(), 0});
  return id;
}

void SpanLog::Close(uint64_t id) { spans_[id - 1].end = NowS(); }

double SpanLog::TotalMs(const std::string& name) const {
  double total = 0;
  for (const auto& s : spans_) {
    if (name == s.name) total += (s.end - s.start) * 1e3;
  }
  return total;
}

size_t SpanLog::Count(const std::string& name) const {
  return static_cast<size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return name == s.name; }));
}

void SpanLog::PrintSelfTimes(std::FILE* out) const {
  std::vector<double> child_ms(spans_.size() + 1, 0);
  for (const auto& s : spans_) {
    if (s.parent != kRoot) child_ms[s.parent] += (s.end - s.start) * 1e3;
  }
  struct Row {
    size_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  for (const auto& s : spans_) {
    Row& row = rows[s.name];
    double dur = (s.end - s.start) * 1e3;
    ++row.count;
    row.total += dur;
    row.self += dur - child_ms[s.id];
  }
  std::fprintf(out, "%-24s %8s %12s %12s %12s\n", "span", "count",
               "total_ms", "self_ms", "self/call_ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(out, "%-24s %8zu %12.3f %12.3f %12.4f\n", name.c_str(),
                 row.count, row.total, row.self,
                 row.self / static_cast<double>(row.count));
  }
}

void SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_us\":" << static_cast<int64_t>(s.start * 1e6)
        << ",\"end_us\":" << static_cast<int64_t>(s.end * 1e6) << "}\n";
  }
}

namespace {

constexpr size_t kReplayBatches = 24;
constexpr double kDirectSeconds = 1.0;
constexpr size_t kCodecOps = 512;

struct Batch {
  bool join = false;
  std::vector<const Query*> queries;
  std::vector<std::vector<float>> flat;  ///< every query column, in order
};

// Consecutive same-kind queries from the stream, `size` per batch.
std::vector<Batch> MakeBatches(const std::vector<Query>& queries, size_t size,
                               size_t count) {
  std::vector<Batch> batches(2);
  batches[0].join = true;
  std::vector<Batch> out;
  for (size_t p = 0; out.size() < count && p < queries.size() * 2; ++p) {
    const Query& q = queries[p % queries.size()];
    Batch& open = batches[q.join ? 0 : 1];
    open.queries.push_back(&q);
    for (const auto& col : q.columns) open.flat.push_back(col);
    if (open.queries.size() == size) {
      out.push_back(std::move(open));
      open = Batch();
      open.join = q.join;
    }
  }
  return out;
}

using IdLists = std::vector<std::vector<std::string>>;

IdLists LibraryBatch(const tsfm::search::ShardedLakeIndex& lib,
                     const Batch& batch, tsfm::ThreadPool* pool) {
  if (batch.join) {
    std::vector<std::vector<float>> cols;
    for (const Query* q : batch.queries) cols.push_back(q->columns[0]);
    return lib.QueryJoinableBatch(cols, kTopK, pool);
  }
  std::vector<Columns> tables;
  for (const Query* q : batch.queries) tables.push_back(q->columns);
  return lib.QueryUnionableBatch(tables, kTopK, pool);
}

tsfm::Result<IdLists> CoordinatorBatch(
    const tsfm::server::DistributedLakeIndex& coord, const Batch& batch) {
  if (batch.join) {
    std::vector<std::vector<float>> cols;
    for (const Query* q : batch.queries) cols.push_back(q->columns[0]);
    return coord.QueryJoinableBatch(cols, kTopK, nullptr);
  }
  std::vector<Columns> tables;
  for (const Query* q : batch.queries) tables.push_back(q->columns);
  return coord.QueryUnionableBatch(tables, kTopK, nullptr);
}

// Merge per-shard remapped hit lists per query column, then Fig 6 rank.
std::vector<std::vector<size_t>> MergeAndRank(const Batch& batch,
                                              const std::vector<HitLists>& per_shard) {
  const size_t m = kTopK * 3;
  std::vector<std::vector<size_t>> ranked;
  size_t col = 0;
  HitLists lists(per_shard.size());
  for (const Query* q : batch.queries) {
    HitLists per_column;
    for (size_t c = 0; c < q->columns.size(); ++c, ++col) {
      for (size_t s = 0; s < per_shard.size(); ++s) lists[s] = per_shard[s][col];
      per_column.push_back(TableRanker::MergeColumnHits(lists, m));
    }
    std::vector<size_t> r =
        batch.join ? TableRanker::RankFromSingleColumnHits(per_column[0], SIZE_MAX)
                   : TableRanker::RankFromColumnHits(per_column, SIZE_MAX);
    if (r.size() > kTopK) r.resize(kTopK);
    ranked.push_back(std::move(r));
  }
  return ranked;
}

}  // namespace

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Status ReplayQueries(const ReplayInputs& in, SpanLog* spans, Metrics* out) {
  const auto& lib = *in.library;
  const size_t num_shards = in.to_global.size();
  const size_t m = kTopK * 3;

  // search.load_s: the whole lake, the way lake_server loads it.
  {
    uint64_t load_span = spans->Open("search.load");
    auto reloaded = tsfm::search::ShardedLakeIndex::Load(in.index_path);
    spans->Close(load_span);
    if (!reloaded.ok()) return reloaded.status();
  }
  double load_s = spans->TotalMs("search.load") / 1e3;

  std::vector<LakeIndex> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = LakeIndex::Load(in.index_path + ".shard-" + std::to_string(s));
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).value());
  }
  std::vector<std::unique_ptr<tsfm::server::LakeClient>> workers;
  std::unique_ptr<tsfm::server::DistributedLakeIndex> coord;
  if (in.distributed) {
    std::vector<std::string> sockets;
    for (size_t s = 0; s < num_shards; ++s) {
      sockets.push_back(in.socket_path + ".shard-" + std::to_string(s));
      auto client = std::make_unique<tsfm::server::LakeClient>();
      if (Status st = client->Connect(sockets.back()); !st.ok()) return st;
      workers.push_back(std::move(client));
    }
    auto connected = tsfm::server::DistributedLakeIndex::Connect(in.index_path,
                                                                sockets);
    if (!connected.ok()) return connected.status();
    coord = std::make_unique<tsfm::server::DistributedLakeIndex>(
        std::move(connected).value());
  }

  // The distributed coordinator scatters one query at a time; the
  // in-process server hands whole coalesced batches to the index.
  const size_t batch_size = in.distributed ? 1 : std::max<size_t>(1, in.batch);
  std::vector<Batch> batches = MakeBatches(*in.queries, batch_size, kReplayBatches);

  std::vector<double> scan_ms, shard_ms, slowest_ms, rank_ms, overhead_ms;
  double scan_pairs = 0;
  size_t replayed_queries = 0;
  size_t mismatches = 0;
  std::vector<std::pair<const Query*, std::vector<std::string>>> answers;
  for (const Batch& batch : batches) {
    // The library's own end-to-end call for this batch.
    uint64_t lib_span = spans->Open("library.query");
    double t0 = NowS();
    IdLists expected;
    if (in.distributed) {
      auto r = CoordinatorBatch(*coord, batch);
      if (!r.ok()) return r.status();
      expected = std::move(r).value();
    } else {
      expected = LibraryBatch(lib, batch, nullptr);
    }
    double lib_ms = (NowS() - t0) * 1e3;
    spans->Close(lib_span);

    // The same batch, layer by layer.
    uint64_t q_span = spans->Open("replay.query");
    std::vector<HitLists> per_shard(num_shards);
    double shard_sum = 0;
    double slowest = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      double s0 = NowS();
      if (in.distributed) {
        uint64_t id = spans->Open("server.shard_rtt", q_span);
        auto hits = workers[s]->ShardQuery(batch.flat, m);
        spans->Close(id);
        if (!hits.ok()) return hits.status();
        for (const auto& list : hits.value()) {
          std::vector<Hit> converted;
          for (const auto& h : list) {
            converted.push_back({static_cast<size_t>(h.table), h.column, h.distance});
          }
          per_shard[s].push_back(std::move(converted));
        }
      } else {
        uint64_t id = spans->Open("search.scan", q_span);
        per_shard[s] = shards[s].SearchColumnsBatch(batch.flat, m, nullptr);
        spans->Close(id);
      }
      double dur = (NowS() - s0) * 1e3;
      shard_sum += dur;
      slowest = std::max(slowest, dur);
      shard_ms.push_back(dur);
      for (auto& list : per_shard[s]) {
        for (auto& hit : list) hit.table_id = in.to_global[s][hit.table_id];
      }
    }
    uint64_t r_span = spans->Open("search.rank", q_span);
    double r0 = NowS();
    auto ranked = MergeAndRank(batch, per_shard);
    double r_ms = (NowS() - r0) * 1e3;
    spans->Close(r_span);
    spans->Close(q_span);
    rank_ms.push_back(r_ms / static_cast<double>(batch.queries.size()));
    slowest_ms.push_back(slowest);
    overhead_ms.push_back(lib_ms - shard_sum - r_ms);
    replayed_queries += batch.queries.size();
    for (size_t q = 0; q < ranked.size(); ++q) {
      std::vector<std::string> ids;
      for (size_t h : ranked[q]) ids.push_back(lib.table_id(h));
      if (ids != expected[q]) ++mismatches;
      answers.push_back({batch.queries[q], expected[q]});
    }

    // Scan alone on every shard at this batch size (the distributed
    // workers run this same scan behind their round trips).
    for (size_t s = 0; s < num_shards; ++s) {
      uint64_t id = spans->Open("search.scan.inproc");
      double s0 = NowS();
      auto hits = shards[s].SearchColumnsBatch(batch.flat, m, nullptr);
      double dur = (NowS() - s0) * 1e3;
      spans->Close(id);
      scan_ms.push_back(dur);
      scan_pairs += static_cast<double>(shards[s].num_columns()) *
                    static_cast<double>(batch.flat.size());
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "replay: %zu layer-by-layer rankings differ from the "
                 "library call\n", mismatches);
    return Status::Internal("layer replay disagrees with the library");
  }
  double scan_total_ms = 0;
  for (double x : scan_ms) scan_total_ms += x;

  // Direct library throughput on the same stream: kConnections caller
  // threads, each issuing batch calls with no server in between.
  std::vector<Batch> direct_batches =
      MakeBatches(*in.queries, std::max<size_t>(1, in.batch), 4096);
  std::atomic<size_t> next{0};
  std::atomic<size_t> answered{0};
  double d0 = NowS();
  double d_end = d0 + kDirectSeconds;
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kConnections; ++c) {
    callers.emplace_back([&] {
      while (NowS() < d_end) {
        const Batch& b = direct_batches[next.fetch_add(1) % direct_batches.size()];
        auto ids = LibraryBatch(lib, b, nullptr);
        answered.fetch_add(ids.size());
      }
    });
  }
  for (auto& t : callers) t.join();
  double direct_qps = static_cast<double>(answered.load()) / (NowS() - d0);

  // Frame codec on the replayed messages: encode each request, decode the
  // response carrying the library's answer.
  std::vector<double> codec_us;
  for (size_t p = 0; p < kCodecOps; ++p) {
    const auto& [query, ids] = answers[p % answers.size()];
    const Query& q = *query;
    tsfm::server::Request request;
    request.op = q.join ? tsfm::server::Opcode::kJoin : tsfm::server::Opcode::kUnion;
    request.k = kTopK;
    request.columns = q.columns;
    tsfm::server::Response response;
    response.op = request.op;
    response.ids = ids;
    std::string encoded_response = tsfm::server::SerializeResponse(response);
    uint64_t id = spans->Open("server.codec");
    double c0 = NowS();
    std::string encoded = tsfm::server::SerializeRequest(request);
    std::istringstream in_stream(encoded_response);
    tsfm::server::Response decoded;
    Status st = tsfm::server::DecodeResponse(in_stream, &decoded);
    codec_us.push_back((NowS() - c0) * 1e6);
    spans->Close(id);
    if (!st.ok() || decoded.ids != response.ids || encoded.empty()) {
      return Status::Internal("codec round trip failed");
    }
  }

  out->Put("search.load_s", load_s, "s");
  out->Put("search.scan_ms", Mean(scan_ms), "ms");
  out->Put("search.scan_mpairs_per_s", scan_pairs / (scan_total_ms * 1e3),
           "Mpairs/s");
  out->Put("search.rank_ms", Mean(rank_ms), "ms");
  out->Put("search.direct_qps", direct_qps, "1/s");
  out->Put("server.codec_us", Mean(codec_us), "us");
  out->Put("server.shard_rtt_ms", Mean(shard_ms), "ms");
  out->Put("server.slowest_shard_ms", Mean(slowest_ms), "ms");
  out->Put("server.scatter_gather_ms", Mean(overhead_ms), "ms");
  std::fprintf(stderr, "replay: %zu batches of %zu (%zu queries), %zu shards%s\n",
               batches.size(), batch_size, replayed_queries, num_shards,
               in.distributed ? " over worker round trips" : "");
  return Status::OK();
}

std::vector<Columns> TraceIngest(const EmbedderStack& stack,
                                 const std::vector<std::string>& csv_paths,
                                 const std::vector<std::string>& ids,
                                 tsfm::search::ShardedLakeIndex* lake,
                                 SpanLog* spans) {
  std::vector<Columns> embedded;
  embedded.reserve(csv_paths.size());
  for (size_t i = 0; i < csv_paths.size(); ++i) {
    std::ifstream file(csv_paths[i], std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    uint64_t root = spans->Open("ingest.table");
    uint64_t id = spans->Open("table.parse", root);
    auto parsed = tsfm::ParseCsv(text.str());
    tsfm::Table table = parsed.ok() ? std::move(parsed).value() : tsfm::Table();
    table.set_id(csv_paths[i]);
    table.InferTypes();
    spans->Close(id);
    id = spans->Open("sketch.build", root);
    tsfm::TableSketch sketch = tsfm::BuildTableSketch(table, IngestSketchOptions());
    spans->Close(id);
    id = spans->Open("core.embed", root);
    Columns columns = stack.embedder.ColumnEmbeddings(sketch);
    spans->Close(id);
    if (lake != nullptr) {
      id = spans->Open("search.add", root);
      lake->AddTable(ids[i], columns);
      spans->Close(id);
    }
    spans->Close(root);
    embedded.push_back(std::move(columns));
  }
  return embedded;
}

}  // namespace perfbench
