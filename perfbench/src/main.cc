// perfbench_runner: one workload of the end-to-end lake benchmark.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --bin-dir <dir with lake_search, lake_server>
//                    [--out-dir <scratch dir>]
//
// Builds the workload's lake from the seed, then runs rounds: each starts
// the deployed `lake_server` (in-process or --distributed) as a child
// process, drives it from kConnections client connections (a closed-loop
// capacity phase, then an open-loop nominal phase at a fixed Poisson rate),
// runs live ingest (ADD_TABLE / REMOVE_TABLE) and stops it. The last round
// also compacts. The runner checks every answer it samples against the
// library, and prints one JSON line last:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (see perfbench/README.md for the table of both).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <string>
#include <vector>

#include "fixture.h"
#include "loadgen.h"
#include "proc.h"
#include "search/sharded_lake_index.h"
#include "server/lake_client.h"
#include "table/csv.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace fs = std::filesystem;
using namespace perfbench;
using tsfm::Status;
using tsfm::search::ShardedLakeIndex;

namespace {

constexpr size_t kShards = 4;
constexpr size_t kDim = 96;  // the embedder's column-embedding width
constexpr size_t kQueries = 4096;
constexpr size_t kProbes = 48;
// A run is kRounds rounds, each on a freshly started server: every metric
// is sampled in every round, so a host slowdown that lasts a few seconds
// moves every metric a little instead of moving one metric a lot.
constexpr size_t kRounds = 8;
// A round during which the hypervisor gave more than this share of the
// VM's CPU time to other guests (steal, from /proc/stat) measured the host,
// not the program. The run adds a round for each such round, up to
// kExtraRounds, and takes its metrics from the kRounds least-stolen rounds.
constexpr double kMaxStealShare = 0.02;
constexpr size_t kExtraRounds = 3;
constexpr size_t kLiveWrites = 1024;  // per round
constexpr size_t kIngestLayerSample = 64;
constexpr double kCapacityShare = 0.3;  // of each round's traffic; the rest is nominal
// On `ingest` each round also runs `lake_search index` once, which takes
// longer than the round's traffic: the traffic gets this share of the
// round's time, so the run still measures for about --seconds.
constexpr double kIngestTrafficShare = 0.4;
// Latency is timed from the due time, so a generator that wakes late adds
// its own lateness to every latency it reports. A run whose p99 lateness
// exceeds this share of the p90 query latency (or kMinLagBoundMs, whichever
// is larger) measured the generator, not the server: it is reported
// invalid instead.
constexpr double kMaxLagShare = 0.5;
constexpr double kMinLagBoundMs = 5.0;

struct WorkloadSpec {
  const char* name;
  bool ingest;          ///< lake comes from `lake_search index` over CSVs
  bool distributed;     ///< serve with `lake_server --distributed`
  size_t size;          ///< tables (ingest) or columns (vector lakes)
  double query_rate;    ///< open-loop query arrivals per second (nominal)
  double write_rate;    ///< writer connection's arrivals per second (0 = none)
  size_t compact_every; ///< every n-th write is a COMPACT
};

// query_rate is 15-19% of the capacity the closed loop measured on a 4-core
// Xeon VM when the benchmark was written. On that shared VM the capacity
// halved for tens of seconds at a time, and at 25-30% of capacity such a
// spell turned into a growing backlog (p90 0.9 ms became 13-19 ms). The
// rates stay fixed so every commit is measured at the same offered load.
constexpr WorkloadSpec kWorkloads[] = {
    {"ingest", true, false, 1500, 1000, 0, 0},
    {"search_spill", false, false, 400000, 25, 0, 0},
    {"search_distributed", false, true, 8000, 450, 0, 0},
    {"search_churn", false, false, 100000, 80, 60, 100},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string out_dir = ".bench_out";
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// A failed request misses every latency limit.
constexpr double kFailedMs = 1e9;

std::vector<double> LatenciesMs(const std::vector<OpRecord>& ops,
                                bool (*keep)(OpKind)) {
  std::vector<double> out;
  for (const auto& op : ops) {
    if (keep(op.kind)) out.push_back(op.ok ? (op.done - op.due) * 1e3 : kFailedMs);
  }
  return out;
}

const double g_start = NowS();

struct Accounting {
  size_t attempted = 0;
  size_t failed = 0;
  void Add(const char* phase, const std::vector<OpRecord>& ops) {
    size_t bad = static_cast<size_t>(std::count_if(
        ops.begin(), ops.end(), [](const OpRecord& r) { return !r.ok; }));
    std::fprintf(stderr, "[%6.2fs] phase %-10s attempted %6zu succeeded %6zu "
                 "failed %zu\n", NowS() - g_start, phase, ops.size(),
                 ops.size() - bad, bad);
    attempted += ops.size();
    failed += bad;
  }
};

bool SameBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  std::string da((std::istreambuf_iterator<char>(fa)), std::istreambuf_iterator<char>());
  std::string db((std::istreambuf_iterator<char>(fb)), std::istreambuf_iterator<char>());
  return !da.empty() && da == db;
}

std::vector<std::string> ServerArgv(const Args& args, const WorkloadSpec& spec,
                                    const std::string& index,
                                    const std::string& socket) {
  std::string server = args.bin_dir + "/lake_server";
  if (spec.distributed) return {server, "--distributed", index, socket};
  return {server, index, socket};
}

using Ranking = std::vector<std::string>;

// The library's answers for `positions` of the query stream.
std::vector<Ranking> ExpectedRankings(const std::vector<Query>& queries,
                                      const std::vector<size_t>& positions,
                                      const ShardedLakeIndex& reference) {
  // Scoped to the call, so no idle pool threads sit in the load generator.
  tsfm::ThreadPool pool(kConnections);
  std::vector<Ranking> out;
  for (size_t p : positions) {
    const Query& q = queries[p];
    out.push_back(q.join ? reference.QueryJoinable(q.columns[0], kTopK, &pool)
                         : reference.QueryUnionable(q.columns, kTopK, &pool));
  }
  return out;
}

// Served answers for `positions` of the query stream, compared against
// `expected`. Returns the number of mismatches (failed requests count).
size_t ProbeParity(tsfm::server::LakeClient* client,
                   const std::vector<Query>& queries,
                   const std::vector<size_t>& positions,
                   const std::vector<Ranking>& expected,
                   std::vector<OpRecord>* records) {
  size_t mismatches = 0;
  for (size_t i = 0; i < positions.size(); ++i) {
    const Query& q = queries[positions[i]];
    OpRecord rec;
    rec.kind = q.join ? OpKind::kJoin : OpKind::kUnion;
    rec.send = rec.due = NowS();
    auto served = q.join ? client->QueryJoinable(q.columns[0], kTopK)
                         : client->QueryUnionable(q.columns, kTopK);
    rec.done = NowS();
    rec.ok = served.ok();
    records->push_back(rec);
    if (!served.ok() || served.value() != expected[i]) ++mismatches;
  }
  return mismatches;
}

void PrintMetrics(const char* title, const Metrics& m) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, vu] : m.items()) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
  }
}

void PrintJson(bool correct, const Accounting& acc, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", acc.attempted, acc.failed);
  bool first = true;
  for (const auto& [name, vu] : m.items()) {
    double v = std::isfinite(vu.first) ? vu.first : kFailedMs;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Round {
  bool traced = false;
  double setup_s = 0;   ///< server start until its socket accepts
  double index_s = 0;   ///< `ingest`: this round's `lake_search index` run
  PhaseResult capacity;
  PhaseResult nominal;
  std::vector<OpRecord> live;  ///< live ingest after the traffic
  double rss_mb = 0;
  double steal_share = 0;  ///< of the VM's CPU time over the round
};

// The VM's CPU time from the first line of /proc/stat, in clock ticks: all
// of it, and the part the hypervisor gave to other guests (steal).
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal; the guest fields that
  // follow are already counted in user and nice.
  double value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// STATS counter deltas summed over the traced rounds.
struct ServerDelta {
  double requests = 0;
  double batches = 0;
  double queue_wait_ms = 0;
  double latency_ms = 0;
  double compactions = 0;
  void Add(const tsfm::server::ServerStats& a, const tsfm::server::ServerStats& b) {
    requests += static_cast<double>(b.requests - a.requests);
    batches += static_cast<double>(b.batches - a.batches);
    queue_wait_ms += b.total_queue_wait_ms - a.total_queue_wait_ms;
    latency_ms += b.total_latency_ms - a.total_latency_ms;
    compactions += static_cast<double>(b.compactions - a.compactions);
  }
};

struct TrafficSummary {
  double capacity_qps = 0;  ///< median over the rounds
  double p50 = 0;           ///< over every nominal query of the rounds
  double p90 = 0;
  size_t samples = 0;
};

double CapacityQps(const Round& round) {
  const PhaseResult& cap = round.capacity;
  auto answered = std::count_if(cap.ops.begin(), cap.ops.end(), [](const OpRecord& r) {
    return r.ok && IsQuery(r.kind);
  });
  return static_cast<double>(answered) / (cap.end - cap.start);
}

// Rounds with traced == `traced` (1 or 0), or every round (-1).
TrafficSummary Summarize(const std::vector<const Round*>& rounds, int traced) {
  TrafficSummary s;
  std::vector<double> rates, all;
  for (const Round* round : rounds) {
    if (traced >= 0 && round->traced != (traced == 1)) continue;
    rates.push_back(CapacityQps(*round));
    auto lat = LatenciesMs(round->nominal.ops, IsQuery);
    all.insert(all.end(), lat.begin(), lat.end());
  }
  s.capacity_qps = Percentile(rates, 0.5);
  s.p50 = Percentile(all, 0.5);
  s.p90 = Percentile(all, 0.9);
  s.samples = all.size();
  return s;
}

// Keeps a run's small reports and deletes its bulk (lakes, CSVs) when the
// run ends, however it ends, so repeated runs do not fill the disk.
class BulkCleanup {
 public:
  explicit BulkCleanup(fs::path dir) : dir_(std::move(dir)) {}
  BulkCleanup(const BulkCleanup&) = delete;
  BulkCleanup& operator=(const BulkCleanup&) = delete;
  ~BulkCleanup() {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      std::string name = entry.path().filename().string();
      if (name != "children.log" && name != "spans.jsonl" && name != "latency.txt") {
        fs::remove_all(entry.path(), ec);
      }
    }
  }

 private:
  fs::path dir_;
};

// Live ingest: kConnections fresh writer connections in a closed loop send
// kLiveWrites alternating ADD_TABLE (fresh ids) and REMOVE_TABLE (tables
// live at set-up, from `remove_offset` on in the removal order, so they
// never meet the churn writer's removals). The same writes go to every
// server instance it is run against.
std::vector<OpRecord> RunLiveIngest(const std::string& socket_path,
                                    const OpStream& stream, size_t remove_offset) {
  constexpr uint64_t kAddBase = uint64_t{1} << 32;  // ids no stream write uses
  std::vector<OpRecord> records;
  std::atomic<size_t> next{0};
  tsfm::Mutex merge_mu;
  auto writer = [&] {
    std::vector<OpRecord> ops;
    tsfm::server::LakeClient client;
    if (!client.Connect(socket_path).ok()) {
      ops.push_back(OpRecord{});  // ok == false: counted as failed
    } else {
      for (size_t j = next.fetch_add(1); j < kLiveWrites; j = next.fetch_add(1)) {
        const bool add = j % 2 == 0;
        OpRecord rec = ExecuteOp(stream, add ? OpKind::kAdd : OpKind::kRemove,
                                 add ? kAddBase + j : remove_offset + j / 2,
                                 &client, false);
        rec.due = rec.send;
        ops.push_back(rec);
      }
    }
    tsfm::MutexLock lock(&merge_mu);
    records.insert(records.end(), ops.begin(), ops.end());
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kConnections; ++t) threads.emplace_back(writer);
  for (auto& t : threads) t.join();
  return records;
}

// Runs `lake_search index` over `csv_dir` into `out`; returns its wall time
// in seconds, or a negative value when it fails.
double RunIndexer(const Args& args, const fs::path& csv_dir,
                  const std::string& out, const std::string& log_path) {
  double t0 = NowS();
  auto indexer = Child::Spawn({args.bin_dir + "/lake_search", "index",
                               csv_dir.string(), out, "flat",
                               std::to_string(kShards)},
                              log_path);
  if (!indexer.ok()) return -1;
  if (Status s = indexer.value().Wait(600000); !s.ok()) {
    std::fprintf(stderr, "lake_search index: %s\n", s.ToString().c_str());
    return -1;
  }
  return NowS() - t0;
}

int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  const fs::path dir = fs::path(args.out_dir) / (std::string(spec.name) + "-s" +
                                                 std::to_string(args.seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const BulkCleanup cleanup(dir);  // declared first: runs after every child stops
  const std::string index_path = (dir / "lake.laks").string();
  const std::string socket_path = (dir / "s").string();
  const std::string log_path = (dir / "children.log").string();
  const fs::path csv_dir = dir / "csv";

  Metrics e2e;
  Metrics layer;
  SpanLog spans;
  Accounting acc;
  bool correct = true;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct = false;
  };
  // ---------------------------------------------------------------- the lake
  std::vector<LakeTable> lake;
  // The library twin of the served lake; released once the replay is done,
  // so this process never holds it beside the oracle's rebuild.
  auto lib = std::make_unique<ShardedLakeIndex>(kDim, kShards);
  if (spec.ingest) {
    fs::create_directories(csv_dir);
    for (const auto& table : MakeDatagenTables(args.seed, spec.size)) {
      if (Status s = tsfm::WriteCsvFile(table, (csv_dir / (table.id() + ".csv")).string());
          !s.ok()) {
        std::fprintf(stderr, "write csv: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    // The served lake is this first run's output; every round indexes the
    // directory again and must write byte-identical shard files.
    if (RunIndexer(args, csv_dir, index_path, log_path) < 0) return 1;

    // The library twin, built the way lake_search builds (same directory
    // order, same embedder), traced layer by layer.
    EmbedderStack stack;
    if (stack.dim() != kDim) {
      std::fprintf(stderr, "embedder width %zu != %zu\n", stack.dim(), kDim);
      return 1;
    }
    std::vector<std::string> paths;
    std::vector<std::string> ids;
    for (const auto& entry : fs::directory_iterator(csv_dir)) {
      if (entry.path().extension() != ".csv") continue;
      paths.push_back(entry.path().string());
      ids.push_back(entry.path().filename().string());
    }
    auto embedded = TraceIngest(stack, paths, ids, lib.get(), &spans);
    for (size_t i = 0; i < ids.size(); ++i) {
      lake.push_back({ids[i], std::move(embedded[i])});
    }
    if (ids.size() != spec.size) fail("CSV count differs from generated tables");
  } else {
    lake = MakeVectorLake(args.seed, spec.size, kDim);
    for (const auto& t : lake) {
      uint64_t id = spans.Open("search.add");
      lib->AddTable(t.id, t.columns);
      spans.Close(id);
    }
  }
  uint64_t save_span = spans.Open("search.save");
  if (Status s = lib->Save(spec.ingest ? (dir / "twin.laks").string() : index_path);
      !s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }
  spans.Close(save_span);
  const double index_mib = static_cast<double>(IndexBytes(index_path)) / (1 << 20);
  // Write the lake back to disk now: kernel writeback of a large freshly
  // saved lake would otherwise land inside the timed phases, or inside the
  // next run's.
  ::sync();
  std::fprintf(stderr, "[%6.2fs] lake: %zu tables, %zu columns x %zu, %.1f MiB on disk\n",
               NowS() - g_start, lake.size(), lib->num_columns(), kDim, index_mib);

  // Ingest layers on a search workload: a small datagen sample, so those
  // spans exist on every workload (the ingest workload traces all tables).
  if (args.trace && !spec.ingest) {
    const fs::path sample_dir = dir / "sample";
    fs::create_directories(sample_dir);
    std::vector<std::string> paths;
    for (const auto& table : MakeDatagenTables(args.seed + 1, kIngestLayerSample)) {
      paths.push_back((sample_dir / (table.id() + ".csv")).string());
      if (!tsfm::WriteCsvFile(table, paths.back()).ok()) return 1;
    }
    EmbedderStack stack;
    (void)TraceIngest(stack, paths, paths, nullptr, &spans);
  }

  // The query stream, removal order, and parity probe positions.
  std::vector<Query> queries = MakeQueries(lake, args.seed, kQueries);
  std::vector<std::string> remove_targets;
  for (const auto& t : lake) remove_targets.push_back(t.id);
  {
    FastRng rng(args.seed * 31 + 7);
    for (size_t i = remove_targets.size(); i > 1; --i) {
      std::swap(remove_targets[i - 1], remove_targets[rng.Below(i)]);
    }
  }
  std::vector<size_t> probe_positions;
  {
    FastRng rng(args.seed * 131 + 3);
    for (size_t i = 0; i < kProbes; ++i) probe_positions.push_back(rng.Below(kQueries));
  }
  const std::vector<Ranking> expected = ExpectedRankings(queries, probe_positions, *lib);
  if (!args.trace) lib.reset();
  OpStream stream;
  stream.queries = &queries;
  stream.remove_targets = &remove_targets;
  stream.seed = args.seed;
  stream.dim = kDim;
  stream.compact_every = spec.compact_every;

  // ------------------------------------------------------------------ rounds
  // Each round starts a fresh server on the same lake files (timed: set-up),
  // checks HEALTH and its share of the probe rankings (which also warm it
  // up), runs a closed-loop capacity phase and an open-loop nominal phase,
  // then live ingest, reads peak RSS and stops the server. On `ingest` the
  // round first
  // indexes the CSVs again. The query and churn-writer streams continue
  // from round to round; a write's validity never depends on timing, and
  // the live-ingest writes are the same in every round, so every write is
  // valid on the instance it reaches. The last instance also compacts and
  // is checked against the churn oracle. A traced run traces every other
  // round, so untraced and traced rounds can be read side by side.
  const double traffic_s =
      args.seconds / kRounds * (spec.ingest ? kIngestTrafficShare : 1.0);
  // Live ingest removes from the second half of the removal order; the
  // churn writer removes from the first.
  const size_t live_offset = remove_targets.size() / 2;
  if (live_offset + kLiveWrites / 2 > remove_targets.size()) {
    std::fprintf(stderr, "lake too small for %zu live writes\n", kLiveWrites);
    return 1;
  }
  StreamCursor cursor;
  std::vector<Round> rounds;
  rounds.reserve(kRounds + kExtraRounds);
  size_t unstolen = 0;
  ServerDelta delta;
  OpRecord compact;
  for (size_t r = 0;; ++r) {
    Round& round = rounds.emplace_back();
    round.traced = args.trace && r % 2 == 1;
    const CpuTicks ticks0 = ReadCpuTicks();
    if (spec.ingest) {
      const std::string out = (dir / "rerun.laks").string();
      round.index_s = RunIndexer(args, csv_dir, out, log_path);
      if (round.index_s < 0) return 1;
      for (size_t shard = 0; shard < kShards; ++shard) {
        std::string suffix = ".shard-" + std::to_string(shard);
        if (!SameBytes(index_path + suffix, out + suffix)) {
          fail("lake_search index is not deterministic (shard " +
               std::to_string(shard) + ")");
        }
      }
    }

    const double t0 = NowS();
    auto spawned = Child::Spawn(ServerArgv(args, spec, index_path, socket_path),
                                log_path);
    if (!spawned.ok()) return 1;
    Child server = std::move(spawned).value();
    if (Status s = WaitForSocket(socket_path, server, 120000); !s.ok()) {
      std::fprintf(stderr, "lake_server: %s (see %s)\n", s.ToString().c_str(),
                   log_path.c_str());
      return 1;
    }
    round.setup_s = NowS() - t0;

    auto gen_or = LoadGenerator::Connect(socket_path, &stream, &cursor);
    if (!gen_or.ok()) {
      std::fprintf(stderr, "connect: %s\n", gen_or.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<LoadGenerator> gen = std::move(gen_or).value();
    tsfm::server::LakeClient* admin = gen->client(0);

    // Correctness: the served lake has every table, and answers a seeded
    // sample of the stream exactly like the library index.
    if (auto health = admin->Health(); !health.ok() ||
                                       health.value().num_tables != lake.size()) {
      fail("served lake does not report the expected table count");
    }
    {
      // Every round checks its share of the probes; the run checks them all.
      std::vector<size_t> positions;
      std::vector<Ranking> answers;
      for (size_t i = r % kRounds; i < kProbes; i += kRounds) {
        positions.push_back(probe_positions[i]);
        answers.push_back(expected[i]);
      }
      std::vector<OpRecord> probes;
      size_t bad = ProbeParity(admin, queries, positions, answers, &probes);
      acc.Add("probe", probes);
      if (bad > 0) fail(std::to_string(bad) + " served rankings differ from the library");
    }

    auto s0 = round.traced ? admin->Stats()
                           : tsfm::Result<tsfm::server::ServerStats>(
                                 tsfm::server::ServerStats{});
    round.capacity = gen->RunClosed(traffic_s * kCapacityShare, spec.write_rate,
                                    round.traced);
    round.nominal = gen->RunOpen(spec.query_rate, traffic_s * (1 - kCapacityShare),
                                 spec.write_rate, args.seed * kRounds + r,
                                 round.traced);
    if (round.traced) {
      auto s1 = admin->Stats();
      if (!s0.ok() || !s1.ok()) {
        fail("STATS failed");
      } else {
        delta.Add(s0.value(), s1.value());
      }
    }
    acc.Add(round.traced ? "capacity/t" : "capacity", round.capacity.ops);
    acc.Add(round.traced ? "nominal/t" : "nominal", round.nominal.ops);

    // Layer-by-layer replay of the same stream, in the first traced round,
    // before live ingest changes the served lake's handle space.
    if (round.traced && lib != nullptr) {
      ReplayInputs in;
      in.library = lib.get();
      in.index_path = index_path;
      in.socket_path = socket_path;
      in.distributed = spec.distributed;
      in.queries = &queries;
      in.batch = delta.batches > 0 ? static_cast<size_t>(std::lround(
                                         delta.requests / delta.batches))
                                   : 1;
      in.to_global.assign(kShards, {});
      for (size_t g = 0; g < lake.size(); ++g) {
        in.to_global[lib->shard_of(lake[g].id)].push_back(g);
      }
      if (Status s = ReplayQueries(in, &spans, &layer); !s.ok()) {
        fail("replay: " + s.ToString());
      }
      lib.reset();
    }

    gen.reset();  // the traffic connections are done
    round.live = RunLiveIngest(socket_path, stream, live_offset);
    acc.Add("live", round.live);
    const CpuTicks ticks1 = ReadCpuTicks();
    round.steal_share = (ticks1.steal - ticks0.steal) /
                        std::max(1.0, ticks1.total - ticks0.total);
    if (round.steal_share <= kMaxStealShare) ++unstolen;
    std::fprintf(stderr, "[%6.2fs] round %zu: steal %.1f%% of CPU time, set-up "
                 "%.4f s, capacity %.1f/s\n", NowS() - g_start, r,
                 100 * round.steal_share, round.setup_s, CapacityQps(round));
    const bool last = unstolen == kRounds || r + 1 == kRounds + kExtraRounds;

    if (last) {
      tsfm::server::LakeClient client;
      if (Status s = client.Connect(socket_path); !s.ok()) {
        fail("connect: " + s.ToString());
      }
      compact = ExecuteOp(stream, OpKind::kCompact, 0, &client, false);
      compact.due = compact.send;
      acc.Add("compact", {compact});

      // Churn oracle: this instance now answers exactly like a from-scratch
      // build of the tables that survived its writes.
      std::set<std::string> removed;
      std::vector<uint64_t> added;
      for (const auto* ops : {&round.capacity.ops, &round.nominal.ops, &round.live}) {
        for (const auto& op : *ops) {
          if (!op.ok) continue;
          if (op.kind == OpKind::kRemove) removed.insert(remove_targets[op.position]);
          if (op.kind == OpKind::kAdd) added.push_back(op.position);
        }
      }
      ShardedLakeIndex oracle(kDim, kShards);
      for (const auto& t : lake) {
        if (removed.count(t.id) == 0) oracle.AddTable(t.id, t.columns);
      }
      std::sort(added.begin(), added.end());
      for (uint64_t w : added) {
        LakeTable t = MakeAddedTable(args.seed, w, kDim);
        oracle.AddTable(t.id, t.columns);
      }
      std::vector<OpRecord> probes;
      size_t bad = ProbeParity(&client, queries, probe_positions,
                               ExpectedRankings(queries, probe_positions, oracle),
                               &probes);
      acc.Add("oracle", probes);
      if (bad > 0) {
        fail(std::to_string(bad) + " rankings differ from a rebuild of the survivors");
      }
      client.Close();  // close every connection before the drain
    }
    round.rss_mb = server.PeakRssMb();
    if (Status s = server.Stop(60000); !s.ok()) fail("server stop: " + s.ToString());
    if (last) break;
  }
  // The kRounds least-stolen rounds; every round when none was replaced.
  std::vector<const Round*> used;
  for (const auto& round : rounds) used.push_back(&round);
  std::stable_sort(used.begin(), used.end(), [](const Round* a, const Round* b) {
    return a->steal_share < b->steal_share;
  });
  used.resize(std::min(used.size(), kRounds));
  std::fprintf(stderr, "rounds: %zu run, %zu with steal above %.0f%%; metrics "
               "from the %zu least stolen\n", rounds.size(), rounds.size() - unstolen,
               100 * kMaxStealShare, used.size());

  if (cursor.write > live_offset) fail("the churn writer ran into live ingest's removals");

  // ----------------------------------------------------------------- metrics
  std::vector<double> lags;
  size_t backlog_max = 0;
  // Per-round figures are medians over the used rounds; latencies pool
  // their samples.
  std::vector<double> setups, index_rates, write_p50s, add_rates, writes;
  for (const Round* round : used) {
    lags.insert(lags.end(), round->nominal.lag_ms.begin(), round->nominal.lag_ms.end());
    backlog_max = std::max(backlog_max, round->nominal.backlog_max);
    setups.push_back(round->setup_s);
    if (spec.ingest) index_rates.push_back(static_cast<double>(spec.size) / round->index_s);
    auto w = LatenciesMs(round->live, IsWrite);
    write_p50s.push_back(Percentile(w, 0.5));
    writes.insert(writes.end(), w.begin(), w.end());
    double first = 1e300, last = 0, adds = 0;
    for (const auto& op : round->live) {
      first = std::min(first, op.send);
      last = std::max(last, op.done);
      if (op.kind == OpKind::kAdd && op.ok) ++adds;
    }
    add_rates.push_back(adds / (last - first));
  }
  double rss_mb = 0;
  double compact_s_total = compact.done - compact.send;
  size_t compacts = 1;
  for (const auto& round : rounds) {
    rss_mb = std::max(rss_mb, round.rss_mb);
    for (const auto* ops : {&round.capacity.ops, &round.nominal.ops}) {
      for (const auto& op : *ops) {
        if (op.kind == OpKind::kCompact && op.ok) {
          compact_s_total += op.done - op.send;
          ++compacts;
        }
      }
    }
  }
  const double lag_p99 = Percentile(lags, 0.99);
  const TrafficSummary traffic = Summarize(used, args.trace ? 1 : -1);

  // `ingest`: tables per second of the round's `lake_search index` run.
  // Elsewhere: tables added per second by live ingest.
  e2e.Put("setup_s", Percentile(setups, 0.5), "s");
  e2e.Put("capacity_qps", traffic.capacity_qps, "1/s");
  e2e.Put("query_p50_ms", traffic.p50, "ms");
  e2e.Put("query_p90_ms", traffic.p90, "ms");
  e2e.Put("write_p50_ms", Percentile(write_p50s, 0.5), "ms");
  e2e.Put("ingest_tables_per_s", Percentile(spec.ingest ? index_rates : add_rates, 0.5),
          "1/s");
  e2e.Put("index_mb", index_mib, "MiB");
  e2e.Put("rss_mb", rss_mb, "MiB");
  std::fprintf(stderr, "nominal: %zu query samples at %.0f ops/s, %zu write "
               "samples (p90 %.4f ms); generator lag p50 %.3f ms p99 %.3f ms, "
               "backlog max %zu\n",
               traffic.samples, spec.query_rate, writes.size(),
               Percentile(writes, 0.9), Percentile(lags, 0.5), lag_p99,
               backlog_max);
  PrintMetrics("end-to-end:", e2e);

  if (args.trace) {
    auto per_call = [&](const char* name) {
      size_t n = spans.Count(name);
      return n == 0 ? 0.0 : spans.TotalMs(name) / static_cast<double>(n);
    };
    double handler_ms = delta.requests > 0 ? delta.latency_ms / delta.requests : 0;
    std::vector<double> rtt, req_bytes, resp_bytes;
    double tombstones = 0, deltas = 0, polls = 0;
    for (const auto& round : rounds) {
      if (!round.traced) continue;
      for (const auto* ops : {&round.capacity.ops, &round.nominal.ops}) {
        for (const auto& op : *ops) {
          if (!IsQuery(op.kind) || !op.ok) continue;
          rtt.push_back((op.done - op.send) * 1e3);
          req_bytes.push_back(op.request_bytes);
          resp_bytes.push_back(op.response_bytes);
        }
      }
      for (const auto& sample : round.nominal.stats) {
        tombstones += static_cast<double>(sample.stats.pending_tombstones);
        deltas += static_cast<double>(sample.stats.pending_delta_tables);
        ++polls;
      }
    }
    polls = std::max(polls, 1.0);

    Metrics ordered;
    ordered.Put("table.parse_ms", per_call("table.parse"), "ms");
    ordered.Put("sketch.build_ms", per_call("sketch.build"), "ms");
    ordered.Put("core.embed_ms", per_call("core.embed"), "ms");
    ordered.Put("search.add_ms", per_call("search.add"), "ms");
    ordered.Put("search.save_s", spans.TotalMs("search.save") / 1e3, "s");
    for (const auto& [name, vu] : layer.items()) ordered.Put(name, vu.first, vu.second);
    ordered.Put("server.avg_batch",
                delta.batches > 0 ? delta.requests / delta.batches : 0, "count");
    ordered.Put("server.queue_wait_ms",
                delta.requests > 0 ? delta.queue_wait_ms / delta.requests : 0, "ms");
    ordered.Put("server.handler_ms", handler_ms, "ms");
    ordered.Put("server.transport_ms", Mean(rtt) - handler_ms, "ms");
    ordered.Put("server.request_bytes", Mean(req_bytes), "B");
    ordered.Put("server.response_bytes", Mean(resp_bytes), "B");
    ordered.Put("search.pending_tombstones", tombstones / polls, "count");
    ordered.Put("search.pending_deltas", deltas / polls, "count");
    ordered.Put("search.compactions", delta.compactions, "count");
    ordered.Put("search.compact_s", compact_s_total / static_cast<double>(compacts), "s");
    ordered.Put("loadgen.lag_ms", lag_p99, "ms");
    ordered.Put("loadgen.backlog_max", static_cast<double>(backlog_max), "count");
    layer = ordered;

    const TrafficSummary untraced = Summarize(used, 0);
    std::fprintf(stderr, "tracing overhead (untraced rounds vs traced rounds):\n"
                 "  %-14s %12s %12s\n  %-14s %12.2f %12.2f\n  %-14s %12.3f %12.3f\n"
                 "  %-14s %12.3f %12.3f\n",
                 "metric", "untraced", "traced", "capacity_qps",
                 untraced.capacity_qps, traffic.capacity_qps, "query_p50_ms",
                 untraced.p50, traffic.p50, "query_p90_ms", untraced.p90, traffic.p90);
    std::fprintf(stderr, "self time per layer (span minus its child spans):\n");
    spans.PrintSelfTimes(stderr);
    PrintMetrics("per-layer:", layer);
  }
  spans.WriteJsonl((dir / "spans.jsonl").string());
  {
    std::FILE* out = std::fopen((dir / "latency.txt").string().c_str(), "w");
    for (size_t r = 0; r < rounds.size(); ++r) {
      for (const auto& op : rounds[r].nominal.ops) {
        std::fprintf(out, "%zu %d %.6f\n", r, static_cast<int>(op.kind),
                     (op.done - op.due) * 1e3);
      }
      for (const auto& op : rounds[r].live) {
        std::fprintf(out, "L%zu %d %.6f\n", r, static_cast<int>(op.kind),
                     (op.done - op.due) * 1e3);
      }
    }
    std::fclose(out);
  }

  const double lag_bound = std::max(kMinLagBoundMs, kMaxLagShare * traffic.p90);
  if (lag_p99 > lag_bound) {
    std::fprintf(stderr, "INVALID RUN: generator lag p99 %.3f ms exceeds %.3f ms; "
                 "the latency numbers would measure the load generator\n",
                 lag_p99, lag_bound);
    return 3;
  }
  if (acc.failed > 0) fail(std::to_string(acc.failed) + " operations failed");
  PrintJson(correct, acc, args.trace ? layer : e2e);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--bin-dir") {
      args->bin_dir = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->bin_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "perfbench_runner: not an optimized (Release) build; "
               "refusing to report numbers from it\n");
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --bin-dir <dir> [--out-dir <dir>]\n");
    return 2;
  }
  for (const auto& spec : kWorkloads) {
    if (args.workload == spec.name) {
      ::signal(SIGPIPE, SIG_IGN);
      BecomeSubreaper();
      KillChildrenOnSignal();
      return RunWorkload(args, spec);
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
