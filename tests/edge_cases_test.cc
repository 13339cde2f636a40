// Cross-cutting edge cases not tied to a single module's happy path.

#include <set>

#include "gtest/gtest.h"
#include "core/recommender.h"
#include "datagen/topic_model.h"
#include "datagen/video_corpus.h"
#include "signature/emd.h"
#include "signature/series_measures.h"
#include "social/sar.h"
#include "stream/monitor.h"
#include "video/segmenter.h"
#include "video/transforms.h"

namespace vrec {
namespace {

using core::Recommender;
using core::RecommenderOptions;
using core::SocialMode;
using signature::SignatureSeries;
using social::SocialDescriptor;

SignatureSeries SeriesAt(std::initializer_list<double> values) {
  SignatureSeries s;
  for (double v : values) s.push_back({{v, 1.0}});
  return s;
}

TEST(EdgeCaseTest, TransformsOnEmptyVideo) {
  Rng rng(1);
  const video::Video empty;
  EXPECT_EQ(video::transforms::BrightnessShift(empty, 10).frame_count(), 0u);
  EXPECT_EQ(video::transforms::DropFrames(empty, 3).frame_count(), 0u);
  EXPECT_EQ(video::transforms::ShuffleChunks(empty, 4, &rng).frame_count(),
            0u);
  EXPECT_EQ(video::transforms::Excerpt(empty, 2, 5).frame_count(), 0u);
  // InsertSlate on an empty video produces just the slate.
  EXPECT_EQ(video::transforms::InsertSlate(empty, 0, 2).frame_count(), 2u);
}

TEST(EdgeCaseTest, SingleFrameVideoThroughFullPipeline) {
  video::Video v(1, {video::Frame(16, 16, 99)});
  const video::Segmenter segmenter;
  const signature::SignatureBuilder builder;
  const auto series = builder.BuildSeries(segmenter.Segment(v));
  ASSERT_TRUE(series.ok());
  ASSERT_FALSE(series->empty());
  EXPECT_TRUE(signature::IsValidSignature((*series)[0]));
  EXPECT_DOUBLE_EQ(signature::KappaJ(*series, *series), 1.0);
}

TEST(EdgeCaseTest, QueryWithEmptyDescriptorAndSeries) {
  RecommenderOptions options;
  options.social_mode = SocialMode::kSarHash;
  options.k_subcommunities = 2;
  Recommender rec(options);
  ASSERT_TRUE(rec.AddVideoRecord(0, SeriesAt({0.0}),
                                 SocialDescriptor({0, 1}))
                  .ok());
  ASSERT_TRUE(rec.AddVideoRecord(1, SeriesAt({5.0}),
                                 SocialDescriptor({2, 3}))
                  .ok());
  ASSERT_TRUE(rec.Finalize(4).ok());
  // Empty social context (fully anonymous) still returns K results.
  const auto no_social = rec.Recommend(SeriesAt({0.0}), SocialDescriptor(), 2);
  ASSERT_TRUE(no_social.ok());
  EXPECT_EQ(no_social->size(), 2u);
  // Empty content (signature-less query) relies on social only.
  const auto no_content =
      rec.Recommend(SignatureSeries{}, SocialDescriptor({0, 1}), 2);
  ASSERT_TRUE(no_content.ok());
  EXPECT_EQ(no_content->size(), 2u);
  EXPECT_EQ((*no_content)[0].id, 0);  // shares both users
}

TEST(EdgeCaseTest, TimingDecompositionIsConsistent) {
  RecommenderOptions options;
  options.social_mode = SocialMode::kSarHash;
  options.k_subcommunities = 2;
  Recommender rec(options);
  for (int v = 0; v < 6; ++v) {
    ASSERT_TRUE(rec.AddVideoRecord(v, SeriesAt({v * 10.0, v * 10.0 + 1}),
                                   SocialDescriptor({v, v + 1}))
                    .ok());
  }
  ASSERT_TRUE(rec.Finalize(8).ok());
  core::QueryTiming t;
  ASSERT_TRUE(rec.RecommendById(0, 3, &t).ok());
  EXPECT_GE(t.total_ms, 0.0);
  // Stage timings must not exceed the total (allowing measurement jitter).
  EXPECT_LE(t.social_ms + t.content_ms + t.refine_ms, t.total_ms + 1.0);
}

TEST(EdgeCaseTest, DictionaryUnknownNamesSkipped) {
  social::UserDictionary dict({0, 1, 0}, 2,
                              social::DictionaryLookup::kChainedHash);
  const auto hist = dict.VectorizeByNameSparse(
      {"user_0", "stranger", "user_2", "also_unknown"});
  ASSERT_EQ(hist.nnz(), 1u);
  EXPECT_EQ(hist.bins[0].first, 0);
  EXPECT_DOUBLE_EQ(hist.bins[0].second, 2.0);  // user_0, user_2
  EXPECT_DOUBLE_EQ(hist.sum, 2.0);
}

TEST(EdgeCaseTest, KappaJWithManyCuboidSignatures) {
  // Signatures with several cuboids each (not just the unit-mass case).
  signature::CuboidSignature a = {{-10.0, 0.25}, {0.0, 0.5}, {10.0, 0.25}};
  signature::CuboidSignature b = {{-10.0, 0.5}, {10.0, 0.5}};
  ASSERT_TRUE(signature::IsValidSignature(a));
  ASSERT_TRUE(signature::IsValidSignature(b));
  const double emd = signature::Emd(a, b);
  EXPECT_NEAR(emd, 5.0, 1e-9);  // move 0.25 mass from 0 to each side
  const double kj = signature::KappaJ({a}, {b});
  EXPECT_GE(kj, 0.0);
  EXPECT_LE(kj, 1.0);
}

TEST(EdgeCaseTest, StreamMonitorHandlesTinyFrames) {
  stream::StreamMonitor monitor;
  video::Video tiny(0, {video::Frame(2, 2, 10), video::Frame(2, 2, 200)});
  ASSERT_TRUE(monitor.IndexReferenceVideo(tiny).ok());
  for (const auto& f : tiny.frames()) monitor.PushFrame(f);
  monitor.Flush();
  EXPECT_EQ(monitor.frames_seen(), 2u);
}

TEST(EdgeCaseTest, StreamMonitorMultipleReferencesDistinguished) {
  Rng rng(31);
  const auto topics = datagen::MakeTopics(10, &rng);
  datagen::CorpusOptions options;
  options.frames_per_video = 24;
  stream::StreamMonitor monitor;
  std::vector<video::Video> refs;
  for (int i = 0; i < 3; ++i) {
    refs.push_back(datagen::RenderVideo(topics[static_cast<size_t>(i * 3)],
                                        i, options, &rng));
    ASSERT_TRUE(monitor.IndexReferenceVideo(refs.back()).ok());
  }
  // Stream only reference 2's frames; alerts must name 2, not 0/1.
  std::set<video::VideoId> flagged;
  for (const auto& f : refs[2].frames()) {
    for (const auto& a : monitor.PushFrame(f)) flagged.insert(a.matched_video);
  }
  for (const auto& a : monitor.Flush()) flagged.insert(a.matched_video);
  EXPECT_TRUE(flagged.count(2));
}

TEST(EdgeCaseTest, OmegaExtremesDegenerate) {
  // omega=0 must equal CR ranking; omega=1 must equal SR ranking.
  auto build = [](double omega, bool use_content, SocialMode mode) {
    RecommenderOptions options;
    options.omega = omega;
    options.use_content = use_content;
    options.social_mode = mode;
    options.k_subcommunities = 2;
    auto rec = std::make_unique<Recommender>(options);
    EXPECT_TRUE(rec->AddVideoRecord(0, SeriesAt({0.0}),
                                    SocialDescriptor({0, 1}))
                    .ok());
    EXPECT_TRUE(rec->AddVideoRecord(1, SeriesAt({1.0}),
                                    SocialDescriptor({4, 5}))
                    .ok());
    EXPECT_TRUE(rec->AddVideoRecord(2, SeriesAt({90.0}),
                                    SocialDescriptor({0, 1, 2}))
                    .ok());
    EXPECT_TRUE(rec->Finalize(6).ok());
    return rec;
  };
  auto omega0 = build(0.0, true, SocialMode::kExact);
  auto cr = build(0.5, true, SocialMode::kNone);
  const auto a = omega0->RecommendById(0, 2);
  const auto b = cr->RecommendById(0, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)[0].id, (*b)[0].id);

  auto omega1 = build(1.0, true, SocialMode::kExact);
  auto sr = build(0.5, false, SocialMode::kExact);
  const auto c = omega1->RecommendById(0, 2);
  const auto d = sr->RecommendById(0, 2);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*c)[0].id, (*d)[0].id);
}

}  // namespace
}  // namespace vrec
