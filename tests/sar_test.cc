#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "reference/kernels.h"
#include "social/sar.h"
#include "util/random.h"

namespace vrec::social {
namespace {

TEST(UserDictionaryTest, CommunityLookupBothStrategies) {
  const std::vector<int> labels = {0, 1, 1, 2};
  for (const auto lookup : {DictionaryLookup::kLinearScan,
                            DictionaryLookup::kSortedArray,
                            DictionaryLookup::kChainedHash}) {
    UserDictionary dict(labels, 3, lookup);
    EXPECT_EQ(dict.CommunityOf(0).value(), 0);
    EXPECT_EQ(dict.CommunityOf(2).value(), 1);
    EXPECT_EQ(dict.CommunityOfName("user_3").value(), 2);
    EXPECT_FALSE(dict.CommunityOf(9).has_value());
    EXPECT_FALSE(dict.CommunityOfName("user_99").has_value());
    EXPECT_FALSE(dict.CommunityOf(-1).has_value());
  }
}

TEST(UserDictionaryTest, VectorizeCountsPerCommunity) {
  const std::vector<int> labels = {0, 0, 1, 2, 2, 2};
  UserDictionary dict(labels, 3, DictionaryLookup::kChainedHash);
  const SocialDescriptor d({0, 1, 3, 4, 5});
  const auto v = reference::Vectorize(dict, d);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(UserDictionaryTest, VectorizeSkipsUnknownUsers) {
  UserDictionary dict({0, 1}, 2, DictionaryLookup::kSortedArray);
  const SocialDescriptor d({0, 1, 50});
  const auto v = reference::Vectorize(dict, d);
  EXPECT_DOUBLE_EQ(v[0] + v[1], 2.0);
}

TEST(UserDictionaryTest, VectorizeByNameMatchesById) {
  const std::vector<int> labels = {0, 1, 2, 1, 0};
  for (const auto lookup : {DictionaryLookup::kLinearScan,
                            DictionaryLookup::kSortedArray,
                            DictionaryLookup::kChainedHash}) {
    UserDictionary dict(labels, 3, lookup);
    const SocialDescriptor d({0, 2, 3});
    std::vector<std::string> names;
    for (UserId u : d.users()) names.push_back(UserName(u));
    EXPECT_EQ(reference::Vectorize(dict, d),
              reference::VectorizeByName(dict, names));
  }
}

TEST(UserDictionaryTest, AssignNewUserExtends) {
  for (const auto lookup : {DictionaryLookup::kLinearScan,
                            DictionaryLookup::kSortedArray,
                            DictionaryLookup::kChainedHash}) {
    UserDictionary dict({0, 1}, 2, lookup);
    dict.Assign(2, 1);  // contiguous extension
    EXPECT_EQ(dict.user_count(), 3u);
    EXPECT_EQ(dict.CommunityOf(2).value(), 1);
    EXPECT_EQ(dict.CommunityOfName("user_2").value(), 1);
  }
}

TEST(UserDictionaryTest, AssignExistingUserReassigns) {
  UserDictionary dict({0, 1}, 2, DictionaryLookup::kChainedHash);
  dict.Assign(0, 1);
  EXPECT_EQ(dict.CommunityOf(0).value(), 1);
  EXPECT_EQ(dict.CommunityOfName("user_0").value(), 1);
}

TEST(UserDictionaryTest, AssignGrowsK) {
  UserDictionary dict({0}, 1, DictionaryLookup::kSortedArray);
  dict.Assign(0, 5);
  EXPECT_GE(dict.k(), 6);
}

TEST(UserDictionaryTest, ReplaceCommunityRelabels) {
  for (const auto lookup : {DictionaryLookup::kLinearScan,
                            DictionaryLookup::kSortedArray,
                            DictionaryLookup::kChainedHash}) {
    UserDictionary dict({0, 0, 1}, 2, lookup);
    dict.ReplaceCommunity(0, 1);
    EXPECT_EQ(dict.CommunityOf(0).value(), 1);
    EXPECT_EQ(dict.CommunityOf(1).value(), 1);
    EXPECT_EQ(dict.CommunityOfName("user_0").value(), 1);
  }
}

TEST(SparseHistogramTest, VectorizeSparseMatchesDense) {
  const std::vector<int> labels = {0, 0, 1, 2, 2, 2};
  UserDictionary dict(labels, 4, DictionaryLookup::kChainedHash);
  const SocialDescriptor d({0, 1, 3, 4, 5});
  const SparseHistogram sparse = dict.VectorizeSparse(d);
  EXPECT_TRUE(CheckSparseHistogram(sparse, dict.k()).ok());
  // Bins (0, 2) carry (2, 3); bins 1 and 3 are absent, not stored as zeros.
  ASSERT_EQ(sparse.nnz(), 2u);
  EXPECT_EQ(sparse.bins[0], (std::pair<int, double>{0, 2.0}));
  EXPECT_EQ(sparse.bins[1], (std::pair<int, double>{2, 3.0}));
  EXPECT_DOUBLE_EQ(sparse.sum, 5.0);
  EXPECT_EQ(reference::ToDense(sparse, dict.k()),
            reference::Vectorize(dict, d));
}

TEST(SparseHistogramTest, ArenaOverloadMatchesHeapAndOverwrites) {
  const std::vector<int> labels = {0, 1, 1, 2};
  UserDictionary dict(labels, 3, DictionaryLookup::kSortedArray);
  SparseHistogram out;
  vrec::util::Arena arena;
  dict.VectorizeSparse(SocialDescriptor({0, 1, 2}), &out, &arena);
  EXPECT_EQ(out, dict.VectorizeSparse(SocialDescriptor({0, 1, 2})));
  // A second call must fully overwrite, not accumulate.
  dict.VectorizeSparse(SocialDescriptor({3}), &out, &arena);
  EXPECT_EQ(out, dict.VectorizeSparse(SocialDescriptor({3})));
  dict.VectorizeSparse(SocialDescriptor(), &out, &arena);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.sum, 0.0);
  EXPECT_GT(arena.allocated_bytes(), 0u);
  // The null-arena form takes the heap-fallback allocator path.
  dict.VectorizeSparse(SocialDescriptor({0, 1, 2}), &out, nullptr);
  EXPECT_EQ(out, dict.VectorizeSparse(SocialDescriptor({0, 1, 2})));
}

TEST(SparseHistogramTest, VectorizeByNameSparseMatchesById) {
  const std::vector<int> labels = {0, 1, 2, 1, 0};
  UserDictionary dict(labels, 3, DictionaryLookup::kChainedHash);
  const SocialDescriptor d({0, 2, 3});
  std::vector<std::string> names;
  for (UserId u : d.users()) names.push_back(UserName(u));
  names.push_back("user_99");  // unknown: skipped, like Vectorize
  EXPECT_EQ(dict.VectorizeByNameSparse(names), dict.VectorizeSparse(d));
}

TEST(SparseHistogramTest, ApproxJaccardSparseMatchesDense) {
  // Equation 6 over the sparse pairs: Σmin / (sumA + sumB - Σmin), which
  // equals the dense min-sum / max-sum exactly for whole-count weights.
  Rng rng(431);
  const int users = 30;
  const int k = 7;
  std::vector<int> labels(users);
  for (int u = 0; u < users; ++u) {
    labels[static_cast<size_t>(u)] = static_cast<int>(rng.UniformInt(0, k - 1));
  }
  UserDictionary dict(labels, k, DictionaryLookup::kSortedArray);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<UserId> ua, ub;
    for (int u = 0; u < users; ++u) {
      if (rng.Bernoulli(0.3)) ua.push_back(u);
      if (rng.Bernoulli(0.3)) ub.push_back(u);
    }
    const SocialDescriptor da(ua), db(ub);
    EXPECT_EQ(ApproxJaccardSparse(dict.VectorizeSparse(da),
                                  dict.VectorizeSparse(db)),
              reference::ApproxJaccard(reference::Vectorize(dict, da),
                                       reference::Vectorize(dict, db)))
        << "trial " << trial;
  }
}

TEST(SparseHistogramTest, EmptyOperandsScoreZero) {
  const SparseHistogram empty;
  UserDictionary dict({0, 1}, 2, DictionaryLookup::kLinearScan);
  const SparseHistogram full = dict.VectorizeSparse(SocialDescriptor({0, 1}));
  EXPECT_EQ(ApproxJaccardSparse(empty, empty), 0.0);
  EXPECT_EQ(ApproxJaccardSparse(empty, full), 0.0);
  EXPECT_EQ(ApproxJaccardSparse(full, empty), 0.0);
}

TEST(SparseHistogramTest, CheckRejectsMalformedHistograms) {
  SparseHistogram h;
  h.bins = {{1, 2.0}, {0, 1.0}};  // unsorted
  h.sum = 3.0;
  EXPECT_FALSE(CheckSparseHistogram(h, 4).ok());
  h.bins = {{0, 1.0}, {1, 2.0}};
  h.sum = 4.0;  // cached sum disagrees
  EXPECT_FALSE(CheckSparseHistogram(h, 4).ok());
  h.sum = 3.0;
  EXPECT_TRUE(CheckSparseHistogram(h, 4).ok());
  EXPECT_FALSE(CheckSparseHistogram(h, 1).ok());  // bin out of range
  h.bins = {{0, 0.0}};
  h.sum = 0.0;
  EXPECT_FALSE(CheckSparseHistogram(h, 4).ok());  // stored zero weight
}

TEST(JaccardCardinalityBoundTest, DominatesExactJaccardInFloat) {
  // min/max cardinalities bound Equation 5 in floating point, not just in
  // the reals: |A∩B| <= min <= max <= |A∪B| and x/y is monotone under IEEE
  // rounding, so the computed bound dominates the computed score.
  Rng rng(433);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<UserId> ua, ub;
    for (int u = 0; u < 25; ++u) {
      if (rng.Bernoulli(0.4)) ua.push_back(u);
      if (rng.Bernoulli(0.4)) ub.push_back(u);
    }
    const SocialDescriptor da(ua), db(ub);
    EXPECT_GE(JaccardCardinalityBound(da.size(), db.size()),
              ExactJaccard(da, db))
        << "trial " << trial;
  }
  EXPECT_EQ(JaccardCardinalityBound(0, 5), 0.0);
  EXPECT_EQ(JaccardCardinalityBound(0, 0), 0.0);
  EXPECT_EQ(JaccardCardinalityBound(7, 7), 1.0);
}

}  // namespace
}  // namespace vrec::social
