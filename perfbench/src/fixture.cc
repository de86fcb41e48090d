#include "fixture.h"

#include <algorithm>
#include <cmath>

#include "lakebench/corpus.h"
#include "lakebench/datagen.h"

namespace perfbench {

namespace {

constexpr size_t kMaxColumnsPerTable = 8;
constexpr float kQueryNoise = 0.05f;

Columns RandomColumns(FastRng* rng, size_t count, size_t dim) {
  Columns cols(count, std::vector<float>(dim));
  for (auto& col : cols) {
    for (auto& x : col) x = rng->Signed();
  }
  return cols;
}

}  // namespace

std::vector<LakeTable> MakeVectorLake(uint64_t seed, size_t num_columns,
                                      size_t dim) {
  FastRng rng(seed * 0x100000001b3ULL + 17);
  std::vector<LakeTable> lake;
  size_t made = 0;
  while (made < num_columns) {
    size_t count = std::min(1 + rng.Below(kMaxColumnsPerTable),
                            num_columns - made);
    lake.push_back({"t" + std::to_string(lake.size()),
                    RandomColumns(&rng, count, dim)});
    made += count;
  }
  return lake;
}

LakeTable MakeAddedTable(uint64_t seed, size_t n, size_t dim) {
  FastRng rng((seed + 1) * 0x9e3779b97f4a7c15ULL ^ (n + 1) * 0xff51afd7ed558ccdULL);
  return {"add" + std::to_string(n),
          RandomColumns(&rng, 1 + rng.Below(kMaxColumnsPerTable), dim)};
}

std::vector<Query> MakeQueries(const std::vector<LakeTable>& lake,
                               uint64_t seed, size_t n) {
  FastRng rng(seed * 0xc2b2ae3d27d4eb4fULL + 5);
  std::vector<Query> queries(n);
  for (size_t i = 0; i < n; ++i) {
    const LakeTable& source = lake[rng.Below(lake.size())];
    Query& q = queries[i];
    q.join = (rng.Next() & 1) != 0;
    if (q.join) {
      q.columns.push_back(source.columns[rng.Below(source.columns.size())]);
    } else {
      q.columns = source.columns;
    }
    for (auto& col : q.columns) {
      for (auto& x : col) x += kQueryNoise * rng.Signed();
    }
  }
  return queries;
}

std::vector<tsfm::Table> MakeDatagenTables(uint64_t seed, size_t n) {
  tsfm::lakebench::DomainCatalog catalog(seed, 200);
  tsfm::Rng rng(seed, 7);
  std::vector<tsfm::Table> tables;
  tables.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& domain = catalog.domain(rng.Uniform(
        static_cast<uint32_t>(catalog.size())));
    size_t width = domain.columns.size();
    size_t keep = 2 + rng.Uniform(static_cast<uint32_t>(width - 1));
    std::vector<size_t> subset = rng.SampleIndices(width, keep);
    std::sort(subset.begin(), subset.end());
    auto rows = static_cast<size_t>(
        std::exp(rng.UniformDouble(std::log(20.0), std::log(1000.0))));
    tables.push_back(tsfm::lakebench::GenerateDomainTable(
        domain, "d" + std::to_string(i), rows, subset, &rng));
  }
  return tables;
}

namespace {

tsfm::core::TabSketchFMConfig FixedConfig(size_t vocab_size) {
  tsfm::core::TabSketchFMConfig config;
  config.encoder.hidden = 32;
  config.encoder.num_layers = 2;
  config.encoder.num_heads = 2;
  config.encoder.ffn_dim = 64;
  config.encoder.dropout = 0.0f;
  config.vocab_size = vocab_size;
  config.num_perm = 16;
  return config;
}

tsfm::text::Vocab FixedVocab() {
  tsfm::lakebench::DomainCatalog catalog(99, 100);
  tsfm::lakebench::CorpusScale cscale;
  cscale.num_tables = 12;
  cscale.augmentations = 0;
  auto corpus = tsfm::lakebench::MakePretrainCorpus(catalog, cscale, 99);
  return tsfm::lakebench::BuildVocabFromTables(corpus, /*include_cells=*/false);
}

}  // namespace

tsfm::SketchOptions IngestSketchOptions() {
  tsfm::SketchOptions options;
  options.num_perm = 16;
  return options;
}

EmbedderStack::EmbedderStack()
    : vocab(FixedVocab()),
      config(FixedConfig(vocab.size())),
      rng(1),
      model(config, &rng),
      tokenizer(&vocab),
      input_encoder(&config, &tokenizer),
      embedder(&model, &input_encoder) {}

size_t EmbedderStack::dim() const {
  return config.encoder.hidden + 2 * config.num_perm + config.encoder.hidden;
}

}  // namespace perfbench
