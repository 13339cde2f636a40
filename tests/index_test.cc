#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "gtest/gtest.h"
#include "index/emd_embedding.h"
#include "index/inverted_file.h"
#include "index/lsh.h"
#include "index/zorder.h"
#include "reference/kernels.h"
#include "signature/emd.h"
#include "util/random.h"

namespace vrec::index {
namespace {

signature::CuboidSignature RandomSignature(Rng* rng) {
  const int n = static_cast<int>(rng->UniformInt(1, 5));
  signature::CuboidSignature sig;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    signature::Cuboid c;
    c.value = rng->Uniform(-80.0, 80.0);
    c.weight = rng->Uniform(0.1, 1.0);
    total += c.weight;
    sig.push_back(c);
  }
  for (auto& c : sig) c.weight /= total;
  return sig;
}

TEST(EmbeddingTest, IdenticalSignaturesZeroL1) {
  const signature::CuboidSignature sig = {{10.0, 0.4}, {-3.0, 0.6}};
  const auto e = EmbedSignature(sig);
  EXPECT_DOUBLE_EQ(EmbeddedL1(e, e), 0.0);
}

TEST(EmbeddingTest, DimensionalityMatchesOptions) {
  EmbeddingOptions options;
  options.dims = 48;
  const auto e = EmbedSignature({{0.0, 1.0}}, options);
  EXPECT_EQ(e.size(), 48u);
}

TEST(EmbeddingTest, L1ApproximatesEmd) {
  // The CDF embedding converges to exact EMD; with a 128-bin grid over
  // [-255, 255] the quantization error per signature is <= bin width (4).
  EmbeddingOptions options;
  options.dims = 128;
  Rng rng(501);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomSignature(&rng);
    const auto b = RandomSignature(&rng);
    const double emd = signature::Emd(a, b);
    const double l1 = EmbeddedL1(EmbedSignature(a, options),
                                 EmbedSignature(b, options));
    EXPECT_NEAR(l1, emd, 2.0 * 510.0 / 128.0) << "trial " << trial;
  }
}

TEST(EmbeddingTest, MonotoneInDistance) {
  const signature::CuboidSignature base = {{0.0, 1.0}};
  const signature::CuboidSignature near = {{8.0, 1.0}};
  const signature::CuboidSignature far = {{120.0, 1.0}};
  const auto eb = EmbedSignature(base);
  EXPECT_LT(EmbeddedL1(eb, EmbedSignature(near)),
            EmbeddedL1(eb, EmbedSignature(far)));
}

TEST(LshTest, DeterministicForSeed) {
  L1Lsh::Options options;
  L1Lsh a(options), b(options);
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_EQ(a.Keys(v), b.Keys(v));
}

TEST(LshTest, KeyCountAndRange) {
  L1Lsh::Options options;
  options.num_hashes = 6;
  options.bits_per_key = 4;
  L1Lsh lsh(options);
  Rng rng(503);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> v(32);
    for (double& x : v) x = rng.Uniform(-5.0, 5.0);
    const auto keys = lsh.Keys(v);
    EXPECT_EQ(keys.size(), 6u);
    for (uint32_t k : keys) EXPECT_LT(k, 16u);
  }
}

TEST(LshTest, CloseVectorsShareMoreKeys) {
  L1Lsh::Options options;
  options.width = 8.0;
  L1Lsh lsh(options);
  Rng rng(505);
  int near_matches = 0, far_matches = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> base(32), near(32), far(32);
    for (size_t i = 0; i < 32; ++i) {
      base[i] = rng.Uniform(-10.0, 10.0);
      near[i] = base[i] + rng.Uniform(-0.05, 0.05);
      far[i] = base[i] + rng.Uniform(-15.0, 15.0);
    }
    const auto kb = lsh.Keys(base);
    const auto kn = lsh.Keys(near);
    const auto kf = lsh.Keys(far);
    for (size_t i = 0; i < kb.size(); ++i) {
      if (kb[i] == kn[i]) ++near_matches;
      if (kb[i] == kf[i]) ++far_matches;
    }
  }
  EXPECT_GT(near_matches, far_matches);
}

TEST(ZOrderTest, InterleaveDeinterleaveRoundTrip) {
  Rng rng(507);
  for (int t = 0; t < 100; ++t) {
    const int m = static_cast<int>(rng.UniformInt(1, 8));
    const int bits = static_cast<int>(rng.UniformInt(1, 64 / m));
    std::vector<uint32_t> keys(static_cast<size_t>(m));
    for (auto& k : keys) {
      k = static_cast<uint32_t>(
          rng.UniformInt(0, (1ll << bits) - 1));
    }
    const uint64_t z = ZOrderInterleave(keys, bits);
    EXPECT_EQ(ZOrderDeinterleave(z, m, bits), keys);
  }
}

TEST(ZOrderTest, KnownInterleaving) {
  // keys = {0b10, 0b01}, 2 bits: MSB-first interleave -> 1,0 then 0,1 ->
  // 0b1001 = 9.
  EXPECT_EQ(ZOrderInterleave({2, 1}, 2), 9u);
}

TEST(ZOrderTest, OrderPreservedInHighBits) {
  // Two points equal in the high bit of every key share a longer common
  // prefix than two points differing there.
  const uint64_t a = ZOrderInterleave({8, 8}, 4);
  const uint64_t b = ZOrderInterleave({9, 8}, 4);   // differs in low bit
  const uint64_t c = ZOrderInterleave({0, 8}, 4);   // differs in high bit
  EXPECT_GT(CommonPrefixLength(a, b), CommonPrefixLength(a, c));
}

TEST(ZOrderTest, CommonPrefixLengthBasics) {
  EXPECT_EQ(CommonPrefixLength(5, 5), 64);
  EXPECT_EQ(CommonPrefixLength(0, 1ULL << 63), 0);
  EXPECT_EQ(CommonPrefixLength(0, 1), 63);
}

TEST(InvertedFileTest, AddAndQuery) {
  InvertedFile file;
  file.Add(0, 100, 2.0);
  file.Add(0, 101, 1.0);
  file.Add(1, 100, 3.0);
  const auto candidates = reference::Candidates(file, {1.0, 1.0});
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].first, 100);
  EXPECT_DOUBLE_EQ(candidates[0].second, 5.0);  // 2*1 + 3*1
  EXPECT_EQ(candidates[1].first, 101);
}

TEST(InvertedFileTest, AddAccumulatesWeight) {
  InvertedFile file;
  file.Add(0, 5, 1.0);
  file.Add(0, 5, 2.0);
  ASSERT_EQ(file.Postings(0).size(), 1u);
  EXPECT_DOUBLE_EQ(file.Postings(0)[0].weight, 3.0);
}

TEST(InvertedFileTest, AppendMatchesAddForDuplicateFreeInput) {
  // The append-only fast path must produce exactly the postings Add builds
  // when the input has no duplicates (the rebuild-from-scratch case).
  InvertedFile slow, fast;
  for (int c = 0; c < 4; ++c) {
    for (int64_t v = 0; v < 32; ++v) {
      slow.Add(c, v, 1.0 + static_cast<double>(v));
      fast.Append(c, v, 1.0 + static_cast<double>(v));
    }
  }
  for (int c = 0; c < 4; ++c) {
    const auto& a = slow.Postings(c);
    const auto& b = fast.Postings(c);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].video_id, b[i].video_id);
      EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
    }
  }
  const auto ca = reference::Candidates(slow, {1.0, 1.0, 1.0, 1.0});
  const auto cb = reference::Candidates(fast, {1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(ca, cb);
}

TEST(InvertedFileTest, AppendAfterRemoveRebuildsCleanly) {
  // RefreshVideoVector's pattern: remove every posting of a video, then
  // re-append its new weights — no duplicate postings may result.
  InvertedFile file;
  file.Add(0, 7, 2.0);
  file.Add(1, 7, 1.0);
  file.RemoveVideoFromCommunity(0, 7);
  file.RemoveVideoFromCommunity(1, 7);
  file.Append(0, 7, 5.0);
  ASSERT_EQ(file.Postings(0).size(), 1u);
  EXPECT_DOUBLE_EQ(file.Postings(0)[0].weight, 5.0);
  EXPECT_TRUE(file.Postings(1).empty());
}

TEST(InvertedFileTest, ZeroMassDimensionsSkipped) {
  InvertedFile file;
  file.Add(0, 1, 1.0);
  file.Add(1, 2, 1.0);
  const auto candidates = reference::Candidates(file, {0.0, 1.0});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].first, 2);
}

TEST(InvertedFileTest, RemoveVideoFromCommunity) {
  InvertedFile file;
  file.Add(0, 1, 1.0);
  file.Add(0, 2, 1.0);
  file.RemoveVideoFromCommunity(0, 1);
  ASSERT_EQ(file.Postings(0).size(), 1u);
  EXPECT_EQ(file.Postings(0)[0].video_id, 2);
  file.RemoveVideoFromCommunity(0, 2);
  EXPECT_TRUE(file.Postings(0).empty());
  file.RemoveVideoFromCommunity(5, 1);  // absent community: no-op
}

TEST(InvertedFileTest, RemoveCommunity) {
  InvertedFile file;
  file.Add(3, 1, 1.0);
  file.RemoveCommunity(3);
  EXPECT_TRUE(file.Postings(3).empty());
}

TEST(InvertedFileTest, QueryLongerThanCommunities) {
  InvertedFile file;
  file.Add(0, 1, 1.0);
  const auto candidates = reference::Candidates(file, {1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(candidates.size(), 1u);
}

TEST(InvertedFileTest, CandidatesSparseMatchesDense) {
  InvertedFile file;
  file.Add(0, 10, 2.0);
  file.Add(0, 11, 1.0);
  file.Add(2, 10, 3.0);
  file.Add(2, 12, 4.0);
  // Same non-zero bins, same walk, same ranking — bit for bit.
  const auto dense = reference::Candidates(file, {2.0, 0.0, 1.0});
  const auto sparse = file.CandidatesSparse({{0, 2.0}, {2, 1.0}});
  EXPECT_EQ(dense, sparse);
  // Bins absent from the query (or with non-positive mass) are skipped.
  const auto skipped = file.CandidatesSparse({{1, 0.0}, {2, 1.0}});
  ASSERT_EQ(skipped.size(), 2u);
  EXPECT_EQ(skipped[0].first, 12);
}

TEST(InvertedFileTest, CandidatesSparseAccumulatesMinOverlap) {
  InvertedFile file;
  file.Add(0, 10, 2.0);  // query mass 3 -> min 2
  file.Add(1, 10, 5.0);  // query mass 4 -> min 4
  file.Add(1, 11, 1.0);  // query mass 4 -> min 1
  file.Add(3, 12, 2.0);  // bin absent from query: video 12 never touched
  std::unordered_map<int64_t, double> min_overlap;
  const auto candidates =
      file.CandidatesSparse({{0, 3.0}, {1, 4.0}}, &min_overlap);
  ASSERT_EQ(candidates.size(), 2u);
  ASSERT_EQ(min_overlap.size(), 2u);
  EXPECT_DOUBLE_EQ(min_overlap.at(10), 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(min_overlap.at(11), 1.0);
  EXPECT_EQ(min_overlap.count(12), 0u);
}

}  // namespace
}  // namespace vrec::index
