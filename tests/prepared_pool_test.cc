// SoA pool tests: the pooled layout must be a pure storage change. Every
// view served by signature::PreparedPool and social::HistogramPool has to
// be bit-for-bit the view over the owned per-record object it was built
// from — across empty slots, releases, in-place updates, and the
// compactions those trigger — because the scoring kernels consume views
// and cannot tell the layouts apart.

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "signature/prepared_pool.h"
#include "signature/prepared_signature.h"
#include "social/histogram_pool.h"
#include "social/sar.h"
#include "util/random.h"

namespace vrec::signature {
namespace {

PreparedSeries RandomSeries(Rng* rng, int max_sigs) {
  SignatureSeries series;
  const int sigs = static_cast<int>(rng->UniformInt(0, max_sigs + 1));
  for (int s = 0; s < sigs; ++s) {
    CuboidSignature sig;
    const int cuboids = static_cast<int>(rng->UniformInt(1, 7));
    for (int c = 0; c < cuboids; ++c) {
      sig.push_back({rng->Uniform(-200.0, 200.0), rng->Uniform(0.01, 1.0)});
    }
    series.push_back(std::move(sig));
  }
  return PrepareSeries(series);
}

// Bitwise comparison of a pooled view against the owned series it mirrors.
void ExpectViewMatches(const PreparedPool& pool, size_t slot,
                       const PreparedSeries& owned) {
  const PreparedSeriesView view = pool.View(slot);
  ASSERT_EQ(view.count, owned.size());
  for (size_t s = 0; s < owned.size(); ++s) {
    const PreparedView& v = view[s];
    const PreparedSignature& o = owned[s];
    ASSERT_EQ(v.len, o.size());
    EXPECT_EQ(v.mean, o.mean);
    EXPECT_EQ(v.min_value, o.min_value);
    EXPECT_EQ(v.max_value, o.max_value);
    // The dense means array must mirror the per-view moments exactly: the
    // batched centroid bound streams means, the scalar path reads v.mean,
    // and equivalence requires they are the same bits.
    EXPECT_EQ(view.means[s], v.mean);
    for (size_t i = 0; i < o.size(); ++i) {
      EXPECT_EQ(v.values[i], o.values[i]);
      EXPECT_EQ(v.weights[i], o.weights[i]);
      EXPECT_EQ(v.cdf[i], o.cdf[i]);
    }
  }
}

TEST(PreparedPoolTest, ViewsMatchOwnedSeriesBitForBit) {
  Rng rng(7);
  std::vector<PreparedSeries> owned;
  for (int r = 0; r < 40; ++r) owned.push_back(RandomSeries(&rng, 6));

  std::vector<const PreparedSeries*> list;
  for (const auto& s : owned) list.push_back(&s);
  PreparedPool pool;
  pool.Build(list);

  ASSERT_EQ(pool.slot_count(), owned.size());
  ASSERT_TRUE(pool.CheckInvariants().ok());
  for (size_t r = 0; r < owned.size(); ++r) ExpectViewMatches(pool, r, owned[r]);
}

TEST(PreparedPoolTest, KernelsAgreeThroughPooledViews) {
  Rng rng(11);
  std::vector<PreparedSeries> owned;
  for (int r = 0; r < 12; ++r) owned.push_back(RandomSeries(&rng, 5));
  std::vector<const PreparedSeries*> list;
  for (const auto& s : owned) list.push_back(&s);
  PreparedPool pool;
  pool.Build(list);

  // EMD / SimC / the centroid bound through a pooled view must equal the
  // owned-layout result bitwise — same kernel, different pointers.
  for (size_t a = 0; a < owned.size(); ++a) {
    for (size_t b = a + 1; b < owned.size(); ++b) {
      const PreparedSeriesView va = pool.View(a);
      const PreparedSeriesView vb = pool.View(b);
      for (size_t i = 0; i < va.count; ++i) {
        for (size_t j = 0; j < vb.count; ++j) {
          const PreparedView ov1 = ViewOf(owned[a][i]);
          const PreparedView ov2 = ViewOf(owned[b][j]);
          EXPECT_EQ(EmdPrepared(va[i], vb[j]), EmdPrepared(ov1, ov2));
          EXPECT_EQ(SimCPrepared(va[i], vb[j]), SimCPrepared(ov1, ov2));
          EXPECT_EQ(SimCUpperBound(va[i], vb[j]), SimCUpperBound(ov1, ov2));
        }
      }
    }
  }
}

TEST(PreparedPoolTest, NullAndEmptyEntriesYieldEmptySlots) {
  Rng rng(3);
  const PreparedSeries filled = RandomSeries(&rng, 4);
  const PreparedSeries empty;
  std::vector<const PreparedSeries*> list = {nullptr, &empty, &filled};
  PreparedPool pool;
  pool.Build(list);

  ASSERT_EQ(pool.slot_count(), 3u);
  EXPECT_TRUE(pool.View(0).empty());
  EXPECT_TRUE(pool.View(1).empty());
  EXPECT_EQ(pool.BytesOf(0), 0u);
  EXPECT_EQ(pool.BytesOf(1), 0u);
  EXPECT_FALSE(pool.View(2).empty());
  EXPECT_GT(pool.BytesOf(2), 0u);
  EXPECT_TRUE(pool.CheckInvariants().ok());
}

TEST(PreparedPoolTest, ReleaseTombstonesAndCompactionKeepsSurvivorsExact) {
  Rng rng(19);
  std::vector<PreparedSeries> owned;
  for (int r = 0; r < 30; ++r) {
    // At least one signature so every slot holds live bytes.
    PreparedSeries s = RandomSeries(&rng, 5);
    if (s.empty()) s = RandomSeries(&rng, 1);
    while (s.empty()) s = RandomSeries(&rng, 1);
    owned.push_back(std::move(s));
  }
  std::vector<const PreparedSeries*> list;
  for (const auto& s : owned) list.push_back(&s);
  PreparedPool pool;
  pool.Build(list);
  const size_t total = pool.live_bytes();
  ASSERT_GT(total, 0u);

  // Release slots one by one; once dead bytes exceed live bytes the pool
  // must compact (dead_bytes drops to 0) and every surviving view must
  // still be bit-identical to its owned source.
  bool saw_compaction = false;
  std::vector<bool> released(owned.size(), false);
  for (size_t r = 0; r + 1 < owned.size(); ++r) {
    pool.Release(r);
    released[r] = true;
    if (pool.dead_bytes() == 0) saw_compaction = true;
    ASSERT_TRUE(pool.CheckInvariants().ok());
    EXPECT_LE(pool.dead_bytes(), pool.live_bytes());
    for (size_t s = 0; s < owned.size(); ++s) {
      if (released[s]) {
        EXPECT_TRUE(pool.View(s).empty());
        EXPECT_EQ(pool.BytesOf(s), 0u);
      } else {
        ExpectViewMatches(pool, s, owned[s]);
      }
    }
  }
  EXPECT_TRUE(saw_compaction);
  EXPECT_LT(pool.live_bytes(), total);

  // Releasing an already-released slot is a no-op.
  pool.Release(0);
  ASSERT_TRUE(pool.CheckInvariants().ok());

  pool.Clear();
  EXPECT_EQ(pool.slot_count(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_EQ(pool.dead_bytes(), 0u);
  EXPECT_TRUE(pool.CheckInvariants().ok());
}

}  // namespace
}  // namespace vrec::signature

namespace vrec::social {
namespace {

SparseHistogram RandomHistogram(Rng* rng, int max_nnz) {
  SparseHistogram h;
  const int nnz = static_cast<int>(rng->UniformInt(0, max_nnz + 1));
  int bin = -1;
  for (int i = 0; i < nnz; ++i) {
    bin += static_cast<int>(rng->UniformInt(1, 5));
    const double w = rng->Uniform(0.01, 3.0);
    h.bins.emplace_back(bin, w);
    h.sum += w;
  }
  return h;
}

void ExpectViewMatches(const HistogramPool& pool, size_t slot,
                       const SparseHistogram& owned) {
  const SparseHistogramView view = pool.View(slot);
  ASSERT_EQ(view.len, owned.nnz());
  EXPECT_EQ(view.sum, owned.sum);
  EXPECT_EQ(pool.SumOf(slot), owned.sum);
  for (size_t i = 0; i < owned.nnz(); ++i) {
    EXPECT_EQ(view.bins[i], owned.bins[i].first);
    EXPECT_EQ(view.weights[i], owned.bins[i].second);
  }
}

TEST(HistogramPoolTest, ViewsAndScoresMatchOwnedHistograms) {
  Rng rng(23);
  std::vector<SparseHistogram> owned;
  for (int r = 0; r < 50; ++r) owned.push_back(RandomHistogram(&rng, 12));
  std::vector<const SparseHistogram*> list;
  for (const auto& h : owned) list.push_back(&h);
  HistogramPool pool;
  pool.Build(list);

  ASSERT_EQ(pool.slot_count(), owned.size());
  ASSERT_TRUE(pool.CheckInvariants().ok());
  const SparseHistogram query = RandomHistogram(&rng, 10);
  for (size_t r = 0; r < owned.size(); ++r) {
    ExpectViewMatches(pool, r, owned[r]);
    // The merge kernel must score the pooled view exactly like the owned
    // vector-of-pairs — same template core, different bin storage.
    EXPECT_EQ(ApproxJaccardSparse(query, pool.View(r)),
              ApproxJaccardSparse(query, owned[r]));
  }
}

TEST(HistogramPoolTest, NullEntriesAndReleaseYieldEmptySlots) {
  Rng rng(5);
  const SparseHistogram h = RandomHistogram(&rng, 8);
  std::vector<const SparseHistogram*> list = {nullptr, &h};
  HistogramPool pool;
  pool.Build(list);
  ASSERT_EQ(pool.slot_count(), 2u);
  EXPECT_TRUE(pool.View(0).empty());
  EXPECT_EQ(pool.SumOf(0), 0.0);
  EXPECT_EQ(pool.BytesOf(0), 0u);

  pool.Release(1);
  EXPECT_TRUE(pool.View(1).empty());
  EXPECT_EQ(pool.SumOf(1), 0.0);
  ASSERT_TRUE(pool.CheckInvariants().ok());
  pool.Release(1);  // idempotent
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

TEST(HistogramPoolTest, UpdateReplacesInPlaceAndCompacts) {
  Rng rng(41);
  std::vector<SparseHistogram> owned;
  for (int r = 0; r < 8; ++r) {
    SparseHistogram h = RandomHistogram(&rng, 10);
    while (h.empty()) h = RandomHistogram(&rng, 10);
    owned.push_back(std::move(h));
  }
  std::vector<const SparseHistogram*> list;
  for (const auto& h : owned) list.push_back(&h);
  HistogramPool pool;
  pool.Build(list);

  // A long stream of in-place updates (the RefreshVideoVector path) must
  // keep every slot's view exact and keep memory bounded: each update
  // tombstones the old range, and compaction fires before dead bytes can
  // exceed live bytes for long.
  bool saw_compaction = false;
  for (int round = 0; round < 200; ++round) {
    const size_t slot = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(owned.size()) - 1));
    owned[slot] = RandomHistogram(&rng, 10);
    pool.Update(slot, owned[slot]);
    if (pool.dead_bytes() == 0 && round > 0) saw_compaction = true;
    ASSERT_TRUE(pool.CheckInvariants().ok());
    EXPECT_LE(pool.dead_bytes(), pool.live_bytes() + 1);
    for (size_t r = 0; r < owned.size(); ++r) {
      ExpectViewMatches(pool, r, owned[r]);
    }
  }
  EXPECT_TRUE(saw_compaction);

  pool.Clear();
  EXPECT_EQ(pool.slot_count(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_EQ(pool.dead_bytes(), 0u);
}

}  // namespace
}  // namespace vrec::social
