// The load generator: one process, at most kConnections threads, each
// owning one LakeClient connection with at most one request in flight.
//
// A phase is either a closed loop (each connection sends its next request
// when the previous one returns; finds capacity) or an open loop (seeded
// Poisson arrivals at a fixed rate; each request is timed from when it was
// *due*, so a stall charges every request queued behind it, and the
// generator reports how late it woke up).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixture.h"
#include "server/lake_client.h"
#include "server/protocol.h"
#include "util/mutex.h"

namespace perfbench {

inline constexpr size_t kConnections = 4;
inline constexpr size_t kTopK = 10;

double NowS();

enum class OpKind : uint8_t { kJoin, kUnion, kAdd, kRemove, kCompact };

inline bool IsQuery(OpKind kind) {
  return kind == OpKind::kJoin || kind == OpKind::kUnion;
}
inline bool IsWrite(OpKind kind) {
  return kind == OpKind::kAdd || kind == OpKind::kRemove;
}

struct OpRecord {
  OpKind kind = OpKind::kJoin;
  bool ok = false;
  uint64_t position = 0;  ///< query position or write number (request id)
  double due = 0;   ///< when the op was scheduled (closed loop: = send)
  double send = 0;  ///< when the generator issued it
  double done = 0;  ///< when the response was read
  uint32_t request_bytes = 0;   ///< traced only
  uint32_t response_bytes = 0;  ///< traced only
};

/// \brief The workload's ops. Query p is queries[p mod |queries|]. Write w
/// never depends on timing for validity: it adds the fresh table "add<w>",
/// removes remove_targets[w] (a table live at set-up), or, every
/// `compact_every`-th write, compacts.
struct OpStream {
  const std::vector<Query>* queries = nullptr;
  const std::vector<std::string>* remove_targets = nullptr;
  uint64_t seed = 0;
  size_t dim = 0;
  size_t compact_every = 0;  ///< 0 = never

  OpKind QueryKind(uint64_t p) const;
  OpKind WriteKind(uint64_t w) const;
};

/// Where the query and write sequences continue; it outlives a generator,
/// so a run's generators (one per server instance) never repeat an op.
struct StreamCursor {
  uint64_t query = 0;
  uint64_t write = 0;
};

/// One STATS snapshot taken during a traced phase.
struct StatsSample {
  double t = 0;
  tsfm::server::ServerStats stats;
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  double start = 0;
  double end = 0;
  std::vector<double> lag_ms;  ///< open loop: generator oversleep per op
  size_t backlog_max = 0;      ///< open loop: most ops due but not yet sent
  std::vector<StatsSample> stats;  ///< traced: periodic STATS snapshots
};

/// Executes query `p` or write `p` (by `kind`) over `client`.
OpRecord ExecuteOp(const OpStream& stream, OpKind kind, uint64_t p,
                   tsfm::server::LakeClient* client, bool traced);

class LoadGenerator {
 public:
  /// Opens kConnections connections to `socket_path`; ops continue from
  /// `cursor`, which the phases advance.
  static tsfm::Result<std::unique_ptr<LoadGenerator>> Connect(
      const std::string& socket_path, const OpStream* stream,
      StreamCursor* cursor);

  /// Queries in a closed loop for `seconds`. With `write_rate` > 0, one
  /// connection is the writer instead, sending writes in an open loop at
  /// that rate (evenly spaced) beside the queries.
  PhaseResult RunClosed(double seconds, double write_rate, bool traced);

  /// Queries in an open loop (seeded Poisson arrivals at `query_rate` per
  /// second); writes as in RunClosed.
  PhaseResult RunOpen(double query_rate, double seconds, double write_rate,
                      uint64_t seed, bool traced);

  tsfm::server::LakeClient* client(size_t i) { return clients_[i].get(); }

 private:
  using Schedule = std::vector<double>;
  /// One lane: a set of connections working through one op sequence, in a
  /// closed loop (no schedule) or an open one.
  struct Lane {
    bool writes = false;
    const Schedule* schedule = nullptr;
    size_t first_client = 0;
    size_t num_clients = 0;
    uint64_t* position = nullptr;
  };
  PhaseResult Run(const std::vector<Lane>& lanes, double seconds, bool traced);

  const OpStream* stream_ = nullptr;
  std::vector<std::unique_ptr<tsfm::server::LakeClient>> clients_;
  StreamCursor* cursor_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
