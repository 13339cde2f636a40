#include "gtest/gtest.h"
#include "core/recommender.h"

namespace vrec::core {
namespace {

using signature::SignatureSeries;
using social::SocialDescriptor;

SignatureSeries SeriesAt(std::initializer_list<double> values) {
  SignatureSeries s;
  for (double v : values) s.push_back({{v, 1.0}});
  return s;
}

// Database where video 1 is a pure content match (content 1, social 0) and
// video 2 a pure social match (content 0, social 1 via identical
// descriptor).
class FusionRuleTest : public ::testing::Test {
 protected:
  std::unique_ptr<Recommender> Build(FusionRule rule, double omega = 0.7) {
    RecommenderOptions options;
    options.social_mode = SocialMode::kExact;
    options.fusion_rule = rule;
    options.omega = omega;
    auto rec = std::make_unique<Recommender>(options);
    EXPECT_TRUE(rec->AddVideoRecord(0, SeriesAt({0.0}),
                                    SocialDescriptor({1, 2}))
                    .ok());
    EXPECT_TRUE(rec->AddVideoRecord(1, SeriesAt({0.0}),
                                    SocialDescriptor({8, 9}))
                    .ok());
    EXPECT_TRUE(rec->AddVideoRecord(2, SeriesAt({150.0}),
                                    SocialDescriptor({1, 2}))
                    .ok());
    EXPECT_TRUE(rec->Finalize(10).ok());
    return rec;
  }
};

TEST_F(FusionRuleTest, WeightedUsesOmega) {
  auto rec = Build(FusionRule::kWeighted, 0.7);
  const auto results = rec->RecommendById(0, 2);
  ASSERT_TRUE(results.ok());
  // social match scores 0.7, content match scores 0.3.
  EXPECT_EQ((*results)[0].id, 2);
  EXPECT_NEAR((*results)[0].score, 0.7, 1e-9);
  EXPECT_EQ((*results)[1].id, 1);
  EXPECT_NEAR((*results)[1].score, 0.3, 1e-9);
}

TEST_F(FusionRuleTest, WeightedOmegaFlipsRanking) {
  auto rec = Build(FusionRule::kWeighted, 0.2);
  const auto results = rec->RecommendById(0, 2);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0].id, 1);  // content now dominates
}

TEST_F(FusionRuleTest, AverageIgnoresOmega) {
  auto rec = Build(FusionRule::kAverage, 0.99);
  const auto results = rec->RecommendById(0, 2);
  ASSERT_TRUE(results.ok());
  // Both pure matches average to 0.5: tie broken by id.
  EXPECT_NEAR((*results)[0].score, 0.5, 1e-9);
  EXPECT_NEAR((*results)[1].score, 0.5, 1e-9);
  EXPECT_EQ((*results)[0].id, 1);
  EXPECT_EQ((*results)[1].id, 2);
}

TEST_F(FusionRuleTest, MaxRetainsHigherChannel) {
  auto rec = Build(FusionRule::kMax);
  const auto results = rec->RecommendById(0, 2);
  ASSERT_TRUE(results.ok());
  EXPECT_NEAR((*results)[0].score, 1.0, 1e-9);
  EXPECT_NEAR((*results)[1].score, 1.0, 1e-9);
}

}  // namespace
}  // namespace vrec::core
