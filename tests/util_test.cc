#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>

#include "gtest/gtest.h"
#include "util/arena.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace vrec {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "k must be positive");
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), Status::Code::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), Status::Code::kInternal);
}

TEST(StatusOrTest, HoldsValueOnSuccess) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, PropagatesError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(9, 9), 9);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(19);
  int rank1 = 0, rank10 = 0;
  for (int i = 0; i < 20000; ++i) {
    const int64_t r = rng.Zipf(10, 1.0);
    EXPECT_GE(r, 1);
    EXPECT_LE(r, 10);
    if (r == 1) ++rank1;
    if (r == 10) ++rank10;
  }
  EXPECT_GT(rank1, 4 * rank10);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[rng.Weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = rng.SampleWithoutReplacement(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 20u);
  for (size_t x : s) EXPECT_LT(x, 100u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(37);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(RngTest, CauchyProducesHeavyTails) {
  Rng rng(41);
  int extreme = 0;
  for (int i = 0; i < 10000; ++i) {
    if (std::abs(rng.Cauchy()) > 10.0) ++extreme;
  }
  // P(|Cauchy| > 10) ~ 6.3%; a normal would essentially never exceed 10.
  EXPECT_GT(extreme, 300);
  EXPECT_LT(extreme, 1300);
}

TEST(ArenaTest, AllocateAlignsAndCounts) {
  util::Arena arena;
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  void* c = arena.Allocate(1, 64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  // allocated_bytes counts bytes handed out, not padding.
  EXPECT_EQ(arena.allocated_bytes(), 3u + 8u + 1u);
  // Writes must not overlap.
  std::memset(a, 0xAA, 3);
  std::memset(b, 0xBB, 8);
  std::memset(c, 0xCC, 1);
  EXPECT_EQ(static_cast<unsigned char*>(a)[0], 0xAA);
  EXPECT_EQ(static_cast<unsigned char*>(b)[7], 0xBB);
  EXPECT_EQ(static_cast<unsigned char*>(c)[0], 0xCC);
}

TEST(ArenaTest, ResetReclaimsAndKeepsLargestChunk) {
  util::Arena arena(64);
  // Force several chunk additions (the minimum chunk is 16KB, so each
  // allocation below consumes most of one).
  for (int i = 0; i < 8; ++i) arena.Allocate(12 << 10, 8);
  EXPECT_GT(arena.chunk_count(), 1u);
  const size_t grown_capacity = arena.capacity_bytes();

  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_LE(arena.capacity_bytes(), grown_capacity);
  const size_t kept = arena.capacity_bytes();

  // Steady state: a workload that fits the kept chunk never adds another.
  for (int round = 0; round < 4; ++round) {
    arena.Reset();
    size_t used = 0;
    while (used + 512 <= kept) {
      arena.Allocate(512, 8);
      used += 512;
    }
    EXPECT_EQ(arena.chunk_count(), 1u);
  }
}

TEST(ArenaTest, AllocatorFallsBackToHeapOnNullArena) {
  // The same container type must work arena-backed and heap-backed.
  util::ArenaVector<double> heap_backed{util::ArenaAllocator<double>(nullptr)};
  util::Arena arena;
  util::ArenaVector<double> arena_backed{util::ArenaAllocator<double>(&arena)};
  for (int i = 0; i < 300; ++i) {
    heap_backed.push_back(static_cast<double>(i));
    arena_backed.push_back(static_cast<double>(i));
  }
  ASSERT_EQ(heap_backed.size(), arena_backed.size());
  for (size_t i = 0; i < heap_backed.size(); ++i) {
    EXPECT_EQ(heap_backed[i], arena_backed[i]);
  }
  EXPECT_GT(arena.allocated_bytes(), 300u * sizeof(double));
  EXPECT_EQ(util::ArenaAllocator<double>(nullptr).arena(), nullptr);
}

TEST(ArenaTest, ThisThreadArenaIsPerThread) {
  util::Arena* const mine = util::ThisThreadArena();
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine, util::ThisThreadArena());
  util::Arena* theirs = nullptr;
  std::thread t([&theirs] { theirs = util::ThisThreadArena(); });
  t.join();
  EXPECT_NE(theirs, nullptr);
  EXPECT_NE(theirs, mine);
}

TEST(SimdKernelTest, BatchedBoundsMatchScalarBitForBit) {
  // The batched kernels are elementwise; each output lane must equal the
  // scalar expression for that lane exactly, on denormals and zeros too.
  Rng rng(97);
  std::vector<double> means;
  for (int i = 0; i < 257; ++i) means.push_back(rng.Uniform(-300.0, 300.0));
  means.push_back(0.0);
  means.push_back(-0.0);
  const double query_mean = rng.Uniform(-300.0, 300.0);
  std::vector<double> out(means.size());
  util::simd::SimCUpperBoundMany(query_mean, means.data(), means.size(),
                                 out.data());
  for (size_t i = 0; i < means.size(); ++i) {
    EXPECT_EQ(out[i], 1.0 / (1.0 + std::abs(query_mean - means[i])));
  }

  std::vector<double> sizes;
  for (int i = 0; i < 129; ++i) {
    sizes.push_back(static_cast<double>(rng.UniformInt(0, 40)));
  }
  const double query_size = 17.0;
  std::vector<double> bounds(sizes.size());
  util::simd::JaccardCardinalityBoundMany(query_size, sizes.data(),
                                          sizes.size(), bounds.data());
  for (size_t i = 0; i < sizes.size(); ++i) {
    const double lo = std::min(query_size, sizes[i]);
    const double hi = std::max(query_size, sizes[i]);
    EXPECT_EQ(bounds[i], lo == 0.0 ? 0.0 : lo / hi);
  }
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = sw.ElapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 500.0);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.Restart();
  EXPECT_LT(sw.ElapsedMillis(), 15.0);
}

}  // namespace
}  // namespace vrec
