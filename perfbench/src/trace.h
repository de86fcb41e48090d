// Per-layer attribution for the traced run. Nothing inside the library is
// instrumented: spans are recorded here, around calls into each layer's
// public functions, kept in memory and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fixture.h"
#include "search/sharded_lake_index.h"

namespace perfbench {

/// Named metric values in report order.
class Metrics {
 public:
  void Put(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Arithmetic mean (0 for no values).
double Mean(const std::vector<double>& v);

/// In-memory spans: name, start, end, and the span that caused it.
class SpanLog {
 public:
  static constexpr uint64_t kRoot = 0;

  uint64_t Open(const char* name, uint64_t parent = kRoot);
  void Close(uint64_t id);
  /// Total milliseconds and call count of spans named `name`.
  double TotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;

  /// Per span name: count, total and self time (duration minus the time
  /// its direct children cover).
  void PrintSelfTimes(std::FILE* out) const;
  void WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    const char* name;
    double start;
    double end;
  };
  std::vector<Span> spans_;
};

/// What the in-process replay needs to know about the served lake.
struct ReplayInputs {
  const tsfm::search::ShardedLakeIndex* library = nullptr;
  std::string index_path;
  std::string socket_path;  ///< the served socket (workers: "<path>.shard-s")
  bool distributed = false;
  /// Shard-local table handle -> global handle, per shard.
  std::vector<std::vector<size_t>> to_global;
  const std::vector<Query>* queries = nullptr;
  size_t batch = 1;  ///< replay batch size (the served average batch)
};

/// Replays the query stream layer by layer: shard scans (or shard round
/// trips), merge + Fig 6 rank, the library's own batch call, direct
/// library throughput, and the frame codec. Fills the search.* and
/// server.* replay metrics.
tsfm::Status ReplayQueries(const ReplayInputs& in, SpanLog* spans,
                           Metrics* out);

/// Runs `tables` through the ingest layers (parse, sketch, embed), each in
/// its own span; with `lake`, also AddTable. Returns the column embeddings.
std::vector<Columns> TraceIngest(const EmbedderStack& stack,
                                 const std::vector<std::string>& csv_texts,
                                 const std::vector<std::string>& ids,
                                 tsfm::search::ShardedLakeIndex* lake,
                                 SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
