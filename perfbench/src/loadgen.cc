#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

using tsfm::Result;
using tsfm::Status;
using tsfm::server::LakeClient;
using tsfm::server::Opcode;
using tsfm::server::Request;
using tsfm::server::Response;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

void SleepUntilS(double t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(t))));
}

constexpr double kStatsPollS = 0.05;

uint32_t FrameBytes(const Request& request) {
  return static_cast<uint32_t>(tsfm::server::SerializeRequest(request).size() +
                               4);
}

uint32_t FrameBytes(Opcode op, const std::vector<std::string>& ids) {
  Response response;
  response.op = op;
  response.ids = ids;
  return static_cast<uint32_t>(
      tsfm::server::SerializeResponse(response).size() + 4);
}

}  // namespace

OpKind OpStream::WriteKind(uint64_t w) const {
  if (compact_every > 0 && w % compact_every == compact_every - 1) {
    return OpKind::kCompact;
  }
  return w % 2 == 0 ? OpKind::kAdd : OpKind::kRemove;
}

OpKind OpStream::QueryKind(uint64_t p) const {
  return (*queries)[p % queries->size()].join ? OpKind::kJoin : OpKind::kUnion;
}

OpRecord ExecuteOp(const OpStream& stream, OpKind kind, uint64_t p,
                   LakeClient* client, bool traced) {
  OpRecord rec;
  rec.kind = kind;
  rec.position = p;
  Request request;
  if (IsQuery(kind)) {
    const Query& q = (*stream.queries)[p % stream.queries->size()];
    rec.send = NowS();
    auto ids = q.join ? client->QueryJoinable(q.columns[0], kTopK)
                      : client->QueryUnionable(q.columns, kTopK);
    rec.done = NowS();
    rec.ok = ids.ok();
    if (traced) {
      request.op = q.join ? Opcode::kJoin : Opcode::kUnion;
      request.k = kTopK;
      request.columns = q.columns;
      rec.request_bytes = FrameBytes(request);
      if (ids.ok()) rec.response_bytes = FrameBytes(request.op, ids.value());
    }
    return rec;
  }
  const uint64_t w = p;
  Status status;
  rec.send = NowS();
  if (kind == OpKind::kAdd) {
    LakeTable table = MakeAddedTable(stream.seed, w, stream.dim);
    rec.send = NowS();
    status = client->AddTable(table.id, table.columns);
    request.op = Opcode::kAddTable;
    request.table_id = table.id;
    if (traced) request.columns = std::move(table.columns);
  } else if (kind == OpKind::kRemove) {
    status = client->RemoveTable((*stream.remove_targets)[w]);
    request.op = Opcode::kRemoveTable;
    request.table_id = (*stream.remove_targets)[w];
  } else {
    status = client->Compact();
    request.op = Opcode::kCompact;
  }
  rec.done = NowS();
  rec.ok = status.ok();
  if (traced) {
    rec.request_bytes = FrameBytes(request);
    rec.response_bytes = FrameBytes(request.op, {});
  }
  return rec;
}

Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    const std::string& socket_path, const OpStream* stream,
    StreamCursor* cursor) {
  auto gen = std::unique_ptr<LoadGenerator>(new LoadGenerator());
  gen->stream_ = stream;
  gen->cursor_ = cursor;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = std::make_unique<LakeClient>();
    if (Status s = client->Connect(socket_path); !s.ok()) return s;
    gen->clients_.push_back(std::move(client));
  }
  return gen;
}

namespace {

std::vector<double> PoissonSchedule(double rate, double seconds, uint64_t seed) {
  FastRng rng(seed * 0x2545f4914f6cdd1dULL + 99);
  std::vector<double> schedule;
  double t = 0;
  while (rate > 0) {
    double u = (static_cast<double>(rng.Next() >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    schedule.push_back(t);
  }
  return schedule;
}

// Evenly spaced arrivals: every seed puts the same writes, COMPACTs
// included, at the same points of a phase, so where a compaction lands does
// not vary from seed to seed.
std::vector<double> EvenSchedule(double rate, double seconds) {
  std::vector<double> schedule;
  for (double t = 0.5 / rate; rate > 0 && t < seconds; t += 1 / rate) {
    schedule.push_back(t);
  }
  return schedule;
}

}  // namespace

PhaseResult LoadGenerator::RunClosed(double seconds, double write_rate,
                                     bool traced) {
  Schedule writes = EvenSchedule(write_rate, seconds);
  size_t writers = write_rate > 0 ? 1 : 0;
  std::vector<Lane> lanes = {
      {false, nullptr, writers, clients_.size() - writers, &cursor_->query}};
  if (writers > 0) lanes.push_back({true, &writes, 0, 1, &cursor_->write});
  return Run(lanes, seconds, traced);
}

PhaseResult LoadGenerator::RunOpen(double query_rate, double seconds,
                                   double write_rate, uint64_t seed,
                                   bool traced) {
  Schedule queries = PoissonSchedule(query_rate, seconds, seed);
  Schedule writes = EvenSchedule(write_rate, seconds);
  size_t writers = write_rate > 0 ? 1 : 0;
  std::vector<Lane> lanes = {
      {false, &queries, writers, clients_.size() - writers, &cursor_->query}};
  if (writers > 0) lanes.push_back({true, &writes, 0, 1, &cursor_->write});
  return Run(lanes, seconds, traced);
}

PhaseResult LoadGenerator::Run(const std::vector<Lane>& lanes, double seconds,
                               bool traced) {
  PhaseResult result;
  std::vector<std::atomic<uint64_t>> next(lanes.size());
  std::atomic<double> next_poll{0};
  tsfm::Mutex merge_mu;
  const double t0 = NowS() + 0.002;
  const double end = t0 + seconds;
  next_poll.store(t0);

  auto worker = [&](size_t l, size_t c) {
    const Lane& lane = lanes[l];
    const Schedule* schedule = lane.schedule;
    const uint64_t base = *lane.position;
    LakeClient* client = clients_[c].get();
    std::vector<OpRecord> ops;
    std::vector<double> lags;
    std::vector<StatsSample> polls;
    size_t backlog_max = 0;
    while (true) {
      uint64_t j = next[l].fetch_add(1);
      double due = 0;
      if (schedule != nullptr) {
        if (j >= schedule->size()) break;
        due = t0 + (*schedule)[j];
        double now = NowS();
        if (now < due) {
          SleepUntilS(due);
          lags.push_back((NowS() - due) * 1e3);
        } else {
          auto due_by_now = static_cast<size_t>(
              std::upper_bound(schedule->begin(), schedule->end(), now - t0) -
              schedule->begin());
          backlog_max = std::max<size_t>(backlog_max, due_by_now - j);
        }
      } else {
        due = NowS();
        if (due >= end) break;
      }
      if (traced) {
        double poll = next_poll.load();
        double now = NowS();
        if (now >= poll && next_poll.compare_exchange_strong(poll, now + kStatsPollS)) {
          auto stats = client->Stats();
          if (stats.ok()) polls.push_back({NowS(), stats.value()});
        }
      }
      uint64_t p = base + j;
      OpKind kind = lane.writes ? stream_->WriteKind(p) : stream_->QueryKind(p);
      OpRecord rec = ExecuteOp(*stream_, kind, p, client, traced);
      rec.due = schedule != nullptr ? due : rec.send;
      ops.push_back(rec);
    }
    tsfm::MutexLock lock(&merge_mu);
    result.ops.insert(result.ops.end(), ops.begin(), ops.end());
    result.lag_ms.insert(result.lag_ms.end(), lags.begin(), lags.end());
    result.stats.insert(result.stats.end(), polls.begin(), polls.end());
    result.backlog_max = std::max(result.backlog_max, backlog_max);
  };

  std::vector<std::thread> threads;
  for (size_t l = 0; l < lanes.size(); ++l) {
    for (size_t c = 0; c < lanes[l].num_clients; ++c) {
      threads.emplace_back(worker, l, lanes[l].first_client + c);
    }
  }
  for (auto& t : threads) t.join();

  // A closed lane claims one position per connection that it never runs;
  // positions only need to be unique, so skipping them is harmless.
  for (size_t l = 0; l < lanes.size(); ++l) *lanes[l].position += next[l].load();
  result.start = t0;
  result.end = t0;
  for (const auto& op : result.ops) result.end = std::max(result.end, op.done);
  std::sort(result.stats.begin(), result.stats.end(),
            [](const StatsSample& a, const StatsSample& b) { return a.t < b.t; });
  return result;
}

}  // namespace perfbench
