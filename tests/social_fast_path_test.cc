// Bit-for-bit equivalence of the social path: sparse SAR histograms in a
// pooled mirror, posting-driven Σmin scoring, and the id-keyed exact
// Jaccard with cardinality-bound pruning must each return exactly what the
// reference oracle's dense / name-keyed computations return — same ids,
// same order, same scores and tie-breaks, bit for bit. Sweeps cover all
// social modes, fusion rules and omegas, empty and unknown-user query
// descriptors, and re-vectorization after ApplySocialUpdate(); the
// shortcut counters must fire where the corpus gives them work.

#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/recommender.h"
#include "oracle_harness.h"
#include "reference/kernels.h"
#include "social/sar.h"
#include "util/random.h"

namespace vrec::core {
namespace {

using oracle_test::BuildEngine;
using oracle_test::BuildOracle;
using oracle_test::CorpusEntry;
using oracle_test::ExpectMatchesOracle;
using oracle_test::ExpectSameResults;
using oracle_test::IdsOf;
using oracle_test::RandomCorpus;
using oracle_test::RandomSignature;
using social::SocialDescriptor;

RecommenderOptions BaseOptions(SocialMode mode) {
  RecommenderOptions options;
  options.social_mode = mode;
  options.k_subcommunities = 4;
  return options;
}

void ExpectAgrees(const std::vector<CorpusEntry>& corpus, int users,
                  const RecommenderOptions& options, int k,
                  QueryTiming* counters = nullptr) {
  const auto engine = BuildEngine(corpus, users, options);
  const auto oracle = BuildOracle(corpus, users, options);
  ExpectMatchesOracle(*engine, *oracle, IdsOf(corpus), k, counters);
}

TEST(SocialFastPathTest, AllSocialModesAgree) {
  Rng rng(71);
  const auto corpus = RandomCorpus(&rng, 40, 16);
  for (const SocialMode mode : {SocialMode::kNone, SocialMode::kExact,
                                SocialMode::kSar, SocialMode::kSarHash}) {
    ExpectAgrees(corpus, 16, BaseOptions(mode), 8);
  }
}

TEST(SocialFastPathTest, FusionRulesAndOmegasAgree) {
  Rng rng(73);
  const auto corpus = RandomCorpus(&rng, 30, 12);
  const double omegas[] = {0.0, 0.7, 1.0};
  for (const SocialMode mode : {SocialMode::kExact, SocialMode::kSarHash}) {
    for (const FusionRule rule :
         {FusionRule::kWeighted, FusionRule::kAverage, FusionRule::kMax}) {
      for (const double omega : omegas) {
        RecommenderOptions options = BaseOptions(mode);
        options.fusion_rule = rule;
        options.omega = omega;
        ExpectAgrees(corpus, 12, options, 6);
      }
    }
  }
}

TEST(SocialFastPathTest, SocialOnlyRetrievalAgrees) {
  // use_content = false exercises the SR configuration where the social
  // candidate stage fully determines the pool.
  Rng rng(83);
  const auto corpus = RandomCorpus(&rng, 40, 16);
  for (const SocialMode mode : {SocialMode::kExact, SocialMode::kSarHash}) {
    RecommenderOptions options = BaseOptions(mode);
    options.use_content = false;
    ExpectAgrees(corpus, 16, options, 8);
  }
}

TEST(SocialFastPathTest, ExactBoundPrunesAndAgrees) {
  // Skewed descriptor sizes plus a tight candidate budget: the cardinality
  // bound must skip merges (nonzero counter), its batched sweep must run,
  // and none of it may change a result.
  Rng rng(89);
  const auto corpus = RandomCorpus(&rng, 60, 16, /*max_fans=*/12);
  RecommenderOptions options = BaseOptions(SocialMode::kExact);
  options.max_candidates = 8;
  QueryTiming counters;
  ExpectAgrees(corpus, 16, options, 4, &counters);
  EXPECT_GT(counters.exact_social_pruned, 0u);
  EXPECT_GT(counters.jaccard_calls, 0u);
  EXPECT_GT(counters.bound_batches, 0u);
}

TEST(SocialFastPathTest, PostingWalkSkipsDisjointAudiences) {
  // Two audiences that never co-comment end up in disjoint sub-communities,
  // so the posting walk never touches the other cluster's records: the
  // skip counter must fire and scores must come off the histogram pool,
  // while results stay identical to the oracle.
  Rng rng(97);
  std::vector<CorpusEntry> corpus;
  for (int v = 0; v < 30; ++v) {
    CorpusEntry entry;
    entry.id = v;
    const int segments = static_cast<int>(rng.UniformInt(1, 3));
    for (int s = 0; s < segments; ++s) {
      entry.series.push_back(RandomSignature(&rng));
    }
    const int base = v < 15 ? 0 : 30;
    const int fans = static_cast<int>(rng.UniformInt(2, 4));
    for (int f = 0; f < fans; ++f) {
      const auto u =
          static_cast<social::UserId>(base + rng.UniformInt(0, 29));
      if (!entry.descriptor.Contains(u)) entry.descriptor.Add(u);
    }
    corpus.push_back(std::move(entry));
  }
  QueryTiming counters;
  ExpectAgrees(corpus, 60, BaseOptions(SocialMode::kSarHash), 6, &counters);
  EXPECT_GT(counters.social_candidates_skipped, 0u);
  EXPECT_GT(counters.pool_bytes_streamed, 0u);
}

TEST(SocialFastPathTest, EmptyAndUnknownUserQueries) {
  // An empty query descriptor and one made of users the dictionary has
  // never seen both score zero social everywhere — on the engine and the
  // oracle alike.
  Rng rng(101);
  const auto corpus = RandomCorpus(&rng, 25, 12);
  SocialDescriptor empty;
  SocialDescriptor unknown;
  unknown.Add(500);
  unknown.Add(501);
  for (const SocialMode mode : {SocialMode::kExact, SocialMode::kSar,
                                SocialMode::kSarHash}) {
    const auto engine = BuildEngine(corpus, 12, BaseOptions(mode));
    const auto oracle = BuildOracle(corpus, 12, BaseOptions(mode));
    for (const SocialDescriptor* d : {&empty, &unknown}) {
      const auto got = engine->Recommend(corpus[0].series, *d, 6);
      const auto want = oracle->Recommend(corpus[0].series, *d, 6);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectSameResults(*got, *want, "query 0");
      for (const auto& r : *got) EXPECT_EQ(r.social, 0.0);
    }
  }
}

TEST(SocialFastPathTest, AgreesAfterSocialUpdates) {
  // ApplySocialUpdate re-vectorizes only the touched records on the engine
  // (the oracle recomputes every histogram) and can split or merge
  // sub-communities; equivalence must survive the maintenance pass.
  Rng rng(103);
  const auto corpus = RandomCorpus(&rng, 30, 12);
  for (const SocialMode mode : {SocialMode::kExact, SocialMode::kSarHash}) {
    const auto engine = BuildEngine(corpus, 12, BaseOptions(mode));
    const auto oracle = BuildOracle(corpus, 12, BaseOptions(mode));
    const std::vector<social::SocialConnection> connections = {
        {0, 5, 4.0}, {3, 7, 2.0}, {1, 9, 6.0}};
    std::vector<std::pair<video::VideoId, social::UserId>> comments;
    for (int i = 0; i < 40; ++i) {
      comments.emplace_back(
          static_cast<video::VideoId>(rng.UniformInt(0, 29)),
          static_cast<social::UserId>(rng.UniformInt(0, 11)));
    }
    ASSERT_TRUE(engine->ApplySocialUpdate(connections, comments).ok());
    ASSERT_TRUE(oracle->ApplySocialUpdate(connections, comments).ok());
    ASSERT_TRUE(engine->CheckInvariants().ok());
    ExpectMatchesOracle(*engine, *oracle, IdsOf(corpus), 6);
  }
}

TEST(SocialFastPathTest, SparseVectorizationMatchesDense) {
  // Unit-level cross-check of the sparse kernels against the reference
  // dense forms: same histogram after ToDense, same Jaccard bit for bit.
  Rng rng(107);
  const int k = 6;
  std::vector<int> labels;
  for (int u = 0; u < 24; ++u) {
    labels.push_back(static_cast<int>(rng.UniformInt(0, k - 1)));
  }
  const social::UserDictionary dict(labels, k,
                                    social::DictionaryLookup::kChainedHash);
  std::vector<SocialDescriptor> descriptors;
  for (int d = 0; d < 20; ++d) {
    SocialDescriptor desc;
    const int fans = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < fans; ++f) {
      const auto u = static_cast<social::UserId>(rng.UniformInt(0, 23));
      if (!desc.Contains(u)) desc.Add(u);
    }
    descriptors.push_back(std::move(desc));
  }
  for (const SocialDescriptor& d : descriptors) {
    const social::SparseHistogram sparse = dict.VectorizeSparse(d);
    EXPECT_TRUE(social::CheckSparseHistogram(sparse, dict.k()).ok());
    EXPECT_EQ(reference::ToDense(sparse, dict.k()),
              reference::Vectorize(dict, d));
  }
  for (size_t a = 0; a < descriptors.size(); ++a) {
    for (size_t b = a + 1; b < descriptors.size(); ++b) {
      const auto sa = dict.VectorizeSparse(descriptors[a]);
      const auto sb = dict.VectorizeSparse(descriptors[b]);
      EXPECT_EQ(social::ApproxJaccardSparse(sa, sb),
                reference::ApproxJaccard(
                    reference::Vectorize(dict, descriptors[a]),
                    reference::Vectorize(dict, descriptors[b])));
    }
  }
}

}  // namespace
}  // namespace vrec::core
