#ifndef VREC_TESTS_ORACLE_HARNESS_H_
#define VREC_TESTS_ORACLE_HARNESS_H_

// Shared fixtures for the suites that check the engine against the
// reference oracle (tests/reference): seeded random corpora with coarse
// signature values (so cross-video matches and score ties are common —
// exactly where an inexact shortcut would reorder results), builders for
// an engine / oracle pair over the same corpus, and the bit-for-bit
// comparison.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/recommender.h"
#include "reference/oracle.h"
#include "util/random.h"

namespace vrec::oracle_test {

struct CorpusEntry {
  video::VideoId id;
  signature::SignatureSeries series;
  social::SocialDescriptor descriptor;
};

inline signature::CuboidSignature RandomSignature(Rng* rng) {
  const int n = static_cast<int>(rng->UniformInt(1, 5));
  signature::CuboidSignature sig;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    signature::Cuboid c;
    c.value = 5.0 * static_cast<double>(rng->UniformInt(-8, 8));
    c.weight = rng->Uniform(0.1, 1.0);
    total += c.weight;
    sig.push_back(c);
  }
  for (signature::Cuboid& c : sig) c.weight /= total;
  return sig;
}

/// `max_fans` controls descriptor-size skew: large spreads make the
/// cardinality bound bite, near-uniform sizes starve it.
inline std::vector<CorpusEntry> RandomCorpus(Rng* rng, int videos, int users,
                                             int max_fans = 4) {
  std::vector<CorpusEntry> corpus;
  corpus.reserve(static_cast<size_t>(videos));
  for (int v = 0; v < videos; ++v) {
    CorpusEntry entry;
    entry.id = v;
    const int segments = static_cast<int>(rng->UniformInt(1, 4));
    for (int s = 0; s < segments; ++s) {
      entry.series.push_back(RandomSignature(rng));
    }
    const int fans = static_cast<int>(rng->UniformInt(1, max_fans));
    for (int f = 0; f < fans; ++f) {
      const auto u =
          static_cast<social::UserId>(rng->UniformInt(0, users - 1));
      if (!entry.descriptor.Contains(u)) entry.descriptor.Add(u);
    }
    corpus.push_back(std::move(entry));
  }
  return corpus;
}

template <typename Engine>
void Ingest(Engine* engine, const std::vector<CorpusEntry>& corpus,
            int users) {
  for (const CorpusEntry& e : corpus) {
    ASSERT_TRUE(engine->AddVideoRecord(e.id, e.series, e.descriptor).ok());
  }
  ASSERT_TRUE(engine->Finalize(static_cast<size_t>(users)).ok());
}

inline std::unique_ptr<core::Recommender> BuildEngine(
    const std::vector<CorpusEntry>& corpus, int users,
    core::RecommenderOptions options) {
  options.num_threads = 1;
  auto engine = std::make_unique<core::Recommender>(std::move(options));
  Ingest(engine.get(), corpus, users);
  return engine;
}

inline std::unique_ptr<reference::Oracle> BuildOracle(
    const std::vector<CorpusEntry>& corpus, int users,
    const core::RecommenderOptions& options) {
  auto oracle = std::make_unique<reference::Oracle>(options);
  Ingest(oracle.get(), corpus, users);
  return oracle;
}

/// Same ids in the same order with identical IEEE-754 doubles for the
/// fused score and both components.
inline void ExpectSameResults(const std::vector<core::ScoredVideo>& got,
                              const std::vector<core::ScoredVideo>& want,
                              const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
    EXPECT_EQ(got[i].content, want[i].content) << label << " rank " << i;
    EXPECT_EQ(got[i].social, want[i].social) << label << " rank " << i;
  }
}

/// Runs every id as a by-id query against the engine and the oracle and
/// demands bitwise agreement (or the same error, e.g. for removed ids).
/// `counters` (optional) accumulates the engine's QueryTiming so callers
/// can assert that its shortcuts actually fired.
inline void ExpectMatchesOracle(const core::Recommender& engine,
                                const reference::Oracle& oracle,
                                const std::vector<video::VideoId>& ids, int k,
                                core::QueryTiming* counters = nullptr,
                                const std::string& label = "") {
  for (const video::VideoId id : ids) {
    core::QueryTiming timing;
    const auto got = engine.RecommendById(id, k, &timing);
    const auto want = oracle.RecommendById(id, k);
    const std::string where = label + " query " + std::to_string(id);
    if (!want.ok()) {
      ASSERT_FALSE(got.ok()) << where;
      EXPECT_EQ(got.status().code(), want.status().code()) << where;
      continue;
    }
    ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
    ExpectSameResults(*got, *want, where);
    if (counters != nullptr) *counters += timing;
  }
}

inline std::vector<video::VideoId> IdsOf(
    const std::vector<CorpusEntry>& corpus) {
  std::vector<video::VideoId> ids;
  for (const CorpusEntry& e : corpus) ids.push_back(e.id);
  return ids;
}

}  // namespace vrec::oracle_test

#endif  // VREC_TESTS_ORACLE_HARNESS_H_
