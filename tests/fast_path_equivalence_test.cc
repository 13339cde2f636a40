// Bit-for-bit equivalence of the content-scoring path: with pair pruning,
// threshold-based top-K refinement, pooled prepared signatures and batched
// bound kernels, every query must return exactly what the reference
// oracle's unpruned full scan returns — same ids, same order, same scores
// and tie-breaks, bit for bit. The sweeps cover all fusion rules, all
// social modes, indexed and exhaustive content retrieval, and boundary
// match_threshold / omega settings.

#include <vector>

#include "gtest/gtest.h"
#include "core/recommender.h"
#include "oracle_harness.h"
#include "util/random.h"

namespace vrec::core {
namespace {

using oracle_test::BuildEngine;
using oracle_test::BuildOracle;
using oracle_test::ExpectMatchesOracle;
using oracle_test::IdsOf;
using oracle_test::RandomCorpus;

RecommenderOptions BaseOptions() {
  RecommenderOptions options;
  options.social_mode = SocialMode::kSarHash;
  options.k_subcommunities = 4;
  return options;
}

void ExpectAgrees(const std::vector<oracle_test::CorpusEntry>& corpus,
                  int users, const RecommenderOptions& options, int k,
                  QueryTiming* counters = nullptr) {
  const auto engine = BuildEngine(corpus, users, options);
  const auto oracle = BuildOracle(corpus, users, options);
  ExpectMatchesOracle(*engine, *oracle, IdsOf(corpus), k, counters);
}

TEST(FastPathEquivalenceTest, AllFusionRules) {
  Rng rng(41);
  const auto corpus = RandomCorpus(&rng, 40, 16);
  for (const FusionRule rule :
       {FusionRule::kWeighted, FusionRule::kAverage, FusionRule::kMax}) {
    RecommenderOptions options = BaseOptions();
    options.fusion_rule = rule;
    ExpectAgrees(corpus, 16, options, 8);
  }
}

TEST(FastPathEquivalenceTest, AllSocialModes) {
  Rng rng(43);
  const auto corpus = RandomCorpus(&rng, 40, 16);
  for (const SocialMode mode : {SocialMode::kNone, SocialMode::kExact,
                                SocialMode::kSar, SocialMode::kSarHash}) {
    RecommenderOptions options = BaseOptions();
    options.social_mode = mode;
    ExpectAgrees(corpus, 16, options, 8);
  }
}

TEST(FastPathEquivalenceTest, ExhaustiveContentModePrunesAndAgrees) {
  // use_lsb_index = false scans the whole corpus per query — the mode the
  // refinement bound targets. The bounds must fire (nonzero counters), the
  // pooled views and batched bound matrices must be in use, and none of it
  // may change a result.
  Rng rng(47);
  const auto corpus = RandomCorpus(&rng, 60, 16);
  RecommenderOptions options = BaseOptions();
  options.use_lsb_index = false;
  QueryTiming counters;
  ExpectAgrees(corpus, 16, options, 5, &counters);
  EXPECT_GT(counters.pairs_pruned, 0u);
  EXPECT_GT(counters.candidates_pruned, 0u);
  EXPECT_GT(counters.emd_calls, 0u);
  EXPECT_GT(counters.pool_bytes_streamed, 0u);
  EXPECT_GT(counters.bound_batches, 0u);
}

TEST(FastPathEquivalenceTest, BoundaryThresholdsAndOmegas) {
  Rng rng(53);
  const auto corpus = RandomCorpus(&rng, 30, 12);
  const double thresholds[] = {0.0, 0.25, 1.0};
  const double omegas[] = {0.0, 0.7, 1.0};
  for (const double threshold : thresholds) {
    for (const double omega : omegas) {
      RecommenderOptions options = BaseOptions();
      options.kappa.match_threshold = threshold;
      options.omega = omega;
      ExpectAgrees(corpus, 12, options, 6);
    }
  }
}

TEST(FastPathEquivalenceTest, BatchMatchesSerial) {
  // RecommendBatch routes through the same kernel; one spot-check that the
  // fast path stays deterministic under the batch engine.
  Rng rng(61);
  const auto corpus = RandomCorpus(&rng, 25, 12);
  const auto rec = BuildEngine(corpus, 12, BaseOptions());
  const std::vector<video::VideoId> ids = IdsOf(corpus);
  const auto batch = rec->RecommendBatchByIds(ids, 6);
  ASSERT_EQ(batch.size(), ids.size());
  for (size_t q = 0; q < ids.size(); ++q) {
    ASSERT_TRUE(batch[q].status.ok());
    const auto serial = rec->RecommendById(ids[q], 6);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ(batch[q].results.size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ(batch[q].results[i].id, (*serial)[i].id);
      EXPECT_EQ(batch[q].results[i].score, (*serial)[i].score);
    }
  }
}

}  // namespace
}  // namespace vrec::core
