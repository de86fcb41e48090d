// Seeded inputs for the end-to-end lake benchmark: vector lakes, the
// query/write stream, datagen CSV tables, and the embedder wiring that
// `lake_search index` uses (so the benchmark can build a library twin).
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/embedder.h"
#include "core/model.h"
#include "sketch/table_sketch.h"
#include "table/table.h"
#include "util/random.h"

namespace perfbench {

using Columns = std::vector<std::vector<float>>;

/// SplitMix64: a fast, seedable generator for bulk vector data.
class FastRng {
 public:
  explicit FastRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [-1, 1).
  float Signed() {
    return static_cast<float>(static_cast<double>(Next() >> 11) * 0x1.0p-52 -
                              1.0);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

struct LakeTable {
  std::string id;
  Columns columns;
};

/// A lake as plain data: tables of 1..8 random column vectors until
/// `num_columns` columns exist.
std::vector<LakeTable> MakeVectorLake(uint64_t seed, size_t num_columns,
                                      size_t dim);

/// A fresh table for live ingest (ADD_TABLE), deterministic in (seed, n).
LakeTable MakeAddedTable(uint64_t seed, size_t n, size_t dim);

/// One read request: a joinable query (one column) or a unionable query
/// (every column of a table), both noisy copies of a lake table's columns.
struct Query {
  bool join = false;
  Columns columns;
};

/// `n` queries drawn from `lake`, alternating join/union in a seeded order.
std::vector<Query> MakeQueries(const std::vector<LakeTable>& lake,
                               uint64_t seed, size_t n);

/// Seeded datagen tables: a random domain, a column subset of its schema,
/// rows log-uniform in [20, 1000].
std::vector<tsfm::Table> MakeDatagenTables(uint64_t seed, size_t n);

/// The model/encoder wiring of `lake_search` (fixed config + vocabulary),
/// so a library twin embeds exactly what the deployed indexer embeds.
struct EmbedderStack {
  EmbedderStack();
  EmbedderStack(const EmbedderStack&) = delete;
  EmbedderStack& operator=(const EmbedderStack&) = delete;

  size_t dim() const;

  tsfm::text::Vocab vocab;
  tsfm::core::TabSketchFMConfig config;
  tsfm::Rng rng;
  tsfm::core::TabSketchFM model;
  tsfm::text::Tokenizer tokenizer;
  tsfm::core::InputEncoder input_encoder;
  tsfm::core::Embedder embedder;
};

/// Sketch options matching lake_search's EmbedTable.
tsfm::SketchOptions IngestSketchOptions();

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
