// Parameterized property sweeps (TEST_P): cross-cutting invariants checked
// over grids of configurations rather than single hand-picked cases.

#include <cmath>
#include <string>

#include "gtest/gtest.h"
#include "datagen/topic_model.h"
#include "datagen/video_corpus.h"
#include "index/emd_embedding.h"
#include "index/lsb_index.h"
#include "signature/emd.h"
#include "signature/series_measures.h"
#include "social/sar.h"
#include "social/subcommunity.h"
#include "util/random.h"
#include "video/segmenter.h"
#include "video/transforms.h"

namespace vrec {
namespace {

// ---------------------------------------------------------------------------
// Transform robustness: for every editing operation the corpus generator
// applies, the transformed video must stay kJ-closer to its original than an
// unrelated video of a different topic is. This is the paper's core content
// claim, checked per-transform.
// ---------------------------------------------------------------------------

using TransformFn = video::Video (*)(const video::Video&, Rng*);

struct TransformCase {
  const char* name;
  TransformFn apply;
};

video::Video TBrightness(const video::Video& v, Rng*) {
  return video::transforms::BrightnessShift(v, 22);
}
video::Video TContrast(const video::Video& v, Rng*) {
  return video::transforms::ContrastScale(v, 1.12);
}
video::Video TNoise(const video::Video& v, Rng* rng) {
  return video::transforms::AddNoise(v, 6, rng);
}
video::Video TShift(const video::Video& v, Rng*) {
  return video::transforms::SpatialShift(v, 3, 2);
}
video::Video TCrop(const video::Video& v, Rng*) {
  return video::transforms::CropZoom(v, 0.12);
}
video::Video TDrop(const video::Video& v, Rng*) {
  return video::transforms::DropFrames(v, 8);
}
video::Video TSlate(const video::Video& v, Rng*) {
  return video::transforms::InsertSlate(v, 6, 3);
}
video::Video TShuffle(const video::Video& v, Rng* rng) {
  return video::transforms::ShuffleChunks(v, 3, rng);
}

class TransformRobustness : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformRobustness, EditedCopyStaysCloserThanUnrelated) {
  Rng rng(42);
  const auto topics = datagen::MakeTopics(10, &rng);
  datagen::CorpusOptions copts;
  copts.frames_per_video = 24;
  const video::Segmenter segmenter;
  const signature::SignatureBuilder builder;

  int wins = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    const auto original =
        datagen::RenderVideo(topics[static_cast<size_t>(t)], t, copts, &rng);
    const auto unrelated = datagen::RenderVideo(
        topics[static_cast<size_t>(t + 5)], 100 + t, copts, &rng);
    Rng trng(static_cast<uint64_t>(t) + 7);
    const auto edited = GetParam().apply(original, &trng);

    const auto s_orig = builder.BuildSeries(segmenter.Segment(original));
    const auto s_edit = builder.BuildSeries(segmenter.Segment(edited));
    const auto s_unrel = builder.BuildSeries(segmenter.Segment(unrelated));
    ASSERT_TRUE(s_orig.ok());
    ASSERT_TRUE(s_edit.ok());
    ASSERT_TRUE(s_unrel.ok());

    const double kin = signature::KappaJ(*s_orig, *s_edit);
    const double noise = signature::KappaJ(*s_orig, *s_unrel);
    if (kin > noise) ++wins;
  }
  // The edited copy must win in (almost) every trial.
  EXPECT_GE(wins, trials - 1) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransforms, TransformRobustness,
    ::testing::Values(TransformCase{"brightness", &TBrightness},
                      TransformCase{"contrast", &TContrast},
                      TransformCase{"noise", &TNoise},
                      TransformCase{"spatial_shift", &TShift},
                      TransformCase{"crop_zoom", &TCrop},
                      TransformCase{"drop_frames", &TDrop},
                      TransformCase{"insert_slate", &TSlate},
                      TransformCase{"shuffle_chunks", &TShuffle}),
    [](const ::testing::TestParamInfo<TransformCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// EMD: the transportation solver agrees with the closed form across
// signature-size combinations.
// ---------------------------------------------------------------------------

class EmdSizeSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EmdSizeSweep, TransportMatchesClosedForm) {
  const auto [na, nb] = GetParam();
  Rng rng(static_cast<uint64_t>(na * 100 + nb));
  for (int trial = 0; trial < 20; ++trial) {
    signature::CuboidSignature a, b;
    double ta = 0.0, tb = 0.0;
    for (int i = 0; i < na; ++i) {
      a.push_back({rng.Uniform(-120.0, 120.0), rng.Uniform(0.05, 1.0)});
      ta += a.back().weight;
    }
    for (int j = 0; j < nb; ++j) {
      b.push_back({rng.Uniform(-120.0, 120.0), rng.Uniform(0.05, 1.0)});
      tb += b.back().weight;
    }
    for (auto& c : a) c.weight /= ta;
    for (auto& c : b) c.weight /= tb;
    const auto transport = signature::EmdTransport(a, b);
    ASSERT_TRUE(transport.ok());
    EXPECT_NEAR(*transport, signature::EmdExact1D(a, b), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, EmdSizeSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 8}, std::pair{3, 5},
                      std::pair{8, 8}, std::pair{16, 16}, std::pair{2, 32}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

// ---------------------------------------------------------------------------
// SAR: the mean approximation error |sJ~ - sJ| shrinks as k grows (the
// Figure 9 rationale), for several descriptor densities.
// ---------------------------------------------------------------------------

class SarErrorSweep : public ::testing::TestWithParam<double> {};

TEST_P(SarErrorSweep, ErrorShrinksWithK) {
  const double density = GetParam();
  Rng rng(17);
  const int users = 120;
  std::vector<social::SocialDescriptor> descriptors;
  for (int d = 0; d < 30; ++d) {
    std::vector<social::UserId> members;
    for (int u = 0; u < users; ++u) {
      if (rng.Bernoulli(density)) members.push_back(u);
    }
    if (members.empty()) members.push_back(0);
    descriptors.emplace_back(members);
  }

  auto mean_error = [&](int k) {
    std::vector<int> labels(users);
    for (int u = 0; u < users; ++u) labels[static_cast<size_t>(u)] = u % k;
    social::UserDictionary dict(labels, k,
                                social::DictionaryLookup::kSortedArray);
    double err = 0.0;
    int n = 0;
    for (size_t a = 0; a < descriptors.size(); ++a) {
      for (size_t b = a + 1; b < descriptors.size(); ++b) {
        err += std::abs(
            social::ApproxJaccardSparse(dict.VectorizeSparse(descriptors[a]),
                                        dict.VectorizeSparse(descriptors[b])) -
            social::ExactJaccard(descriptors[a], descriptors[b]));
        ++n;
      }
    }
    return err / n;
  };

  const double e10 = mean_error(10);
  const double e40 = mean_error(40);
  const double e120 = mean_error(120);
  EXPECT_LE(e40, e10 + 1e-12);
  EXPECT_LE(e120, e40 + 1e-12);
  EXPECT_NEAR(e120, 0.0, 1e-12);  // k == users: exact
}

INSTANTIATE_TEST_SUITE_P(Densities, SarErrorSweep,
                         ::testing::Values(0.1, 0.3, 0.6),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "density" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

// ---------------------------------------------------------------------------
// Extraction: fast == literal across seeds (distinct weights).
// ---------------------------------------------------------------------------

class ExtractionEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExtractionEquivalenceSweep, FastMatchesLiteral) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t n = static_cast<size_t>(rng.UniformInt(6, 20));
  graph::WeightedGraph g(n);
  double w = 0.5;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.3)) g.AddEdge(i, j, w += rng.Uniform(0.01, 0.7));
    }
  }
  for (int k = 1; k <= static_cast<int>(n); k += 3) {
    const auto fast = social::ExtractSubCommunities(g, k);
    const auto literal = social::ExtractSubCommunitiesLiteral(g, k);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(literal.ok());
    EXPECT_EQ(fast->num_communities, literal->num_communities) << "k=" << k;
    if (std::isfinite(fast->lightest_intra_weight)) {
      EXPECT_DOUBLE_EQ(fast->lightest_intra_weight,
                       literal->lightest_intra_weight)
          << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractionEquivalenceSweep,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// LSB index: recall improves (weakly) with the number of trees.
// ---------------------------------------------------------------------------

class LsbTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LsbTreeSweep, DuplicateRecallHigh) {
  index::LsbIndex::Options options;
  options.num_trees = GetParam();
  index::LsbIndex idx(options);
  for (int v = 0; v < 60; ++v) {
    idx.AddVideo(v, {{{-150.0 + 5.0 * v, 1.0}}});
  }
  int found = 0;
  for (int v = 0; v < 60; ++v) {
    const auto hits = idx.Candidates({{-150.0 + 5.0 * v, 1.0}}, 6);
    if (hits.count(v)) ++found;
  }
  EXPECT_EQ(found, 60);  // exact duplicates must always be recalled
}

INSTANTIATE_TEST_SUITE_P(Trees, LsbTreeSweep, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Embedding: L1 error against exact EMD shrinks as the grid refines.
// ---------------------------------------------------------------------------

class EmbeddingResolutionSweep : public ::testing::TestWithParam<int> {};

TEST_P(EmbeddingResolutionSweep, ErrorBoundedByBinWidth) {
  const int dims = GetParam();
  index::EmbeddingOptions options;
  options.dims = dims;
  const double bin_width = 510.0 / dims;
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    signature::CuboidSignature a = {{rng.Uniform(-200, 200), 0.5},
                                    {rng.Uniform(-200, 200), 0.5}};
    signature::CuboidSignature b = {{rng.Uniform(-200, 200), 1.0}};
    const double emd = signature::Emd(a, b);
    const double l1 = index::EmbeddedL1(index::EmbedSignature(a, options),
                                        index::EmbedSignature(b, options));
    EXPECT_NEAR(l1, emd, 2.5 * bin_width);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, EmbeddingResolutionSweep,
                         ::testing::Values(16, 32, 64, 128, 256));

}  // namespace
}  // namespace vrec
