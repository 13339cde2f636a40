// Unit tests of the reference oracle's naive kernels (tests/reference):
// the dense Equation 6, the name-set Equation 5 and their relation to the
// engine's exact id-keyed Jaccard.

#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "reference/kernels.h"
#include "social/descriptor.h"
#include "social/sar.h"
#include "util/random.h"

namespace vrec::reference {
namespace {

using social::DictionaryLookup;
using social::ExactJaccard;
using social::SocialDescriptor;
using social::UserDictionary;
using social::UserId;

TEST(ApproxJaccardTest, EquationSix) {
  // min-sum / max-sum of the histograms.
  const std::vector<double> a = {2.0, 0.0, 3.0};
  const std::vector<double> b = {1.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(ApproxJaccard(a, b), (1.0 + 0.0 + 3.0) / (2.0 + 1.0 + 3.0));
}

TEST(ApproxJaccardTest, IdenticalVectorsScoreOne) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ApproxJaccard(a, a), 1.0);
}

TEST(ApproxJaccardTest, ZeroVectorsScoreZero) {
  EXPECT_DOUBLE_EQ(ApproxJaccard({0.0, 0.0}, {0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(ApproxJaccard({}, {}), 0.0);
}

TEST(ApproxJaccardTest, MismatchedLengthsTreatTailAsZero) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(ApproxJaccard(a, b), 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(ApproxJaccard(b, a), 1.0 / 5.0);
}

TEST(ApproxJaccardTest, EqualsExactJaccardWhenCommunitiesAreSingletons) {
  // With one community per user, the histogram is the indicator vector and
  // Equation 6 degenerates to Equation 5 exactly.
  const std::vector<int> labels = {0, 1, 2, 3, 4, 5};
  UserDictionary dict(labels, 6, DictionaryLookup::kSortedArray);
  const SocialDescriptor a({0, 1, 2, 3});
  const SocialDescriptor b({2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(ApproxJaccard(Vectorize(dict, a), Vectorize(dict, b)),
                   ExactJaccard(a, b));
}

TEST(ApproxJaccardTest, UpperBoundsExactJaccardOnCoarsening) {
  // Property: merging users into sub-communities can only make descriptors
  // look more alike (mass in the same bin matches regardless of identity),
  // so sJ~ >= sJ on random instances.
  Rng rng(401);
  for (int trial = 0; trial < 50; ++trial) {
    const int users = 30;
    const int k = static_cast<int>(rng.UniformInt(2, 8));
    std::vector<int> labels(users);
    for (int& l : labels) l = static_cast<int>(rng.UniformInt(0, k - 1));
    UserDictionary dict(labels, k, DictionaryLookup::kSortedArray);

    std::vector<UserId> ua, ub;
    for (int u = 0; u < users; ++u) {
      if (rng.Bernoulli(0.4)) ua.push_back(u);
      if (rng.Bernoulli(0.4)) ub.push_back(u);
    }
    if (ua.empty() || ub.empty()) continue;
    const SocialDescriptor da(ua), db(ub);
    EXPECT_GE(ApproxJaccard(Vectorize(dict, da), Vectorize(dict, db)) + 1e-12,
              ExactJaccard(da, db))
        << "trial " << trial;
  }
}

TEST(ApproxJaccardTest, ApproximationTightensWithMoreCommunities) {
  // The paper's Figure 9 rationale: larger k -> finer histograms -> less
  // information loss. With k == #users the approximation is exact.
  Rng rng(409);
  const int users = 40;
  std::vector<UserId> ua, ub;
  for (int u = 0; u < users; ++u) {
    if (rng.Bernoulli(0.5)) ua.push_back(u);
    if (rng.Bernoulli(0.5)) ub.push_back(u);
  }
  const SocialDescriptor da(ua), db(ub);
  const double exact = ExactJaccard(da, db);

  auto error_for_k = [&](int k) {
    std::vector<int> labels(users);
    for (int u = 0; u < users; ++u) labels[static_cast<size_t>(u)] = u % k;
    UserDictionary dict(labels, k, DictionaryLookup::kSortedArray);
    return std::abs(ApproxJaccard(Vectorize(dict, da), Vectorize(dict, db)) -
                    exact);
  };
  EXPECT_LE(error_for_k(40), 1e-12);          // k == users: exact
  EXPECT_LE(error_for_k(20), error_for_k(2) + 1e-12);
}

TEST(ExactJaccardByNamesTest, MatchesSortedSetImplementation) {
  const social::SocialDescriptor a({1, 2, 3, 4});
  const social::SocialDescriptor b({3, 4, 5});
  std::vector<std::string> na, nb;
  for (auto u : a.users()) na.push_back(social::UserName(u));
  for (auto u : b.users()) nb.push_back(social::UserName(u));
  EXPECT_DOUBLE_EQ(ExactJaccardByNames(na, nb),
                   social::ExactJaccard(a, b));
}

TEST(ExactJaccardByNamesTest, EmptyAndUnsortedInputs) {
  EXPECT_DOUBLE_EQ(ExactJaccardByNames({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(ExactJaccardByNames({"x"}, {}), 0.0);
  // Unsorted inputs work (the paper's raw name sets are unsorted).
  EXPECT_DOUBLE_EQ(
      ExactJaccardByNames({"c", "a"}, {"a", "b", "c"}),
      2.0 / 3.0);
}

}  // namespace
}  // namespace vrec::reference
