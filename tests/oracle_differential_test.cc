// Randomized differential test: seeded operation sequences — ingest,
// Finalize, ApplySocialUpdate, RemoveVideo, snapshot save/load on the mmap
// and the stream path, by-id queries — run against the engine and the
// reference oracle in lockstep. After every step every by-id query must
// agree bit for bit (ids, order, fused score, content and social terms)
// between the engine, its snapshot twins and the oracle. Covers every
// social mode x fusion rule x content configuration (LSB, exhaustive
// κJ, social-only SR, DTW).

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/recommender.h"
#include "oracle_harness.h"
#include "util/random.h"

namespace vrec::core {
namespace {

using oracle_test::CorpusEntry;
using oracle_test::ExpectMatchesOracle;
using oracle_test::IdsOf;
using oracle_test::RandomCorpus;

enum class ContentConfig { kLsb, kExhaustive, kSocialOnly, kDtw };

using Config = std::tuple<SocialMode, FusionRule, ContentConfig>;

constexpr int kUsers = 16;
constexpr int kVideos = 36;
constexpr int kSteps = 10;

RecommenderOptions OptionsFor(const Config& config, Rng* rng) {
  RecommenderOptions options;
  options.social_mode = std::get<0>(config);
  options.fusion_rule = std::get<1>(config);
  options.k_subcommunities = 4;
  options.num_threads = 1;
  // A tight budget exercises the admission boundary between the social and
  // content stages; a wide one lets every stage contribute.
  options.max_candidates = rng->UniformInt(0, 1) == 0 ? 8 : 400;
  switch (std::get<2>(config)) {
    case ContentConfig::kLsb:
      break;
    case ContentConfig::kExhaustive:
      options.use_lsb_index = false;
      break;
    case ContentConfig::kSocialOnly:
      options.use_content = false;
      break;
    case ContentConfig::kDtw:
      options.content_measure = ContentMeasure::kDtw;
      break;
  }
  return options;
}

std::string TempPath(const std::string& name) {
  // ctest runs each discovered test as its own process against the same
  // TempDir; the pid keeps concurrent tests off each other's files.
  return ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "." +
         name;
}

class OracleDifferentialTest : public ::testing::TestWithParam<Config> {};

TEST_P(OracleDifferentialTest, RandomOperationSequencesAgree) {
  const Config config = GetParam();
  const uint64_t seed = 1000 + 100 * uint64_t(std::get<0>(config)) +
                        10 * uint64_t(std::get<1>(config)) +
                        uint64_t(std::get<2>(config));
  Rng rng(seed);
  const RecommenderOptions options = OptionsFor(config, &rng);
  const std::vector<CorpusEntry> corpus =
      RandomCorpus(&rng, kVideos, kUsers, /*max_fans=*/6);
  const std::vector<video::VideoId> ids = IdsOf(corpus);
  const int k = static_cast<int>(rng.UniformInt(3, 7));

  auto engine = std::make_unique<Recommender>(options);
  reference::Oracle oracle(options);
  for (const CorpusEntry& e : corpus) {
    ASSERT_TRUE(engine->AddVideoRecord(e.id, e.series, e.descriptor).ok());
    ASSERT_TRUE(oracle.AddVideoRecord(e.id, e.series, e.descriptor).ok());
  }
  ASSERT_TRUE(engine->Finalize(kUsers).ok());
  ASSERT_TRUE(oracle.Finalize(kUsers).ok());
  ExpectMatchesOracle(*engine, oracle, ids, k, nullptr, "finalize");

  bool use_mmap = true;
  for (int step = 0; step < kSteps; ++step) {
    std::string label = "step " + std::to_string(step);
    switch (rng.UniformInt(0, 2)) {
      case 0: {  // one period of social activity
        label += " (update)";
        std::vector<social::SocialConnection> connections;
        const int n = static_cast<int>(rng.UniformInt(1, 6));
        for (int i = 0; i < n; ++i) {
          connections.push_back(
              {static_cast<social::UserId>(rng.UniformInt(0, kUsers - 1)),
               static_cast<social::UserId>(rng.UniformInt(0, kUsers - 1)),
               static_cast<double>(rng.UniformInt(1, 6))});
        }
        std::vector<std::pair<video::VideoId, social::UserId>> comments;
        for (int i = 0; i < 12; ++i) {
          comments.emplace_back(
              static_cast<video::VideoId>(rng.UniformInt(0, kVideos - 1)),
              static_cast<social::UserId>(rng.UniformInt(0, kUsers - 1)));
        }
        const auto got = engine->ApplySocialUpdate(connections, comments);
        const auto want = oracle.ApplySocialUpdate(connections, comments);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
        EXPECT_EQ(got->merges, want->merges) << label;
        EXPECT_EQ(got->splits, want->splits) << label;
        break;
      }
      case 1: {  // remove a video (possibly one already gone)
        const auto victim = static_cast<video::VideoId>(
            rng.UniformInt(0, kVideos - 1));
        label += " (remove " + std::to_string(victim) + ")";
        EXPECT_EQ(engine->RemoveVideo(victim).code(),
                  oracle.RemoveVideo(victim).code())
            << label;
        break;
      }
      default: {  // save, then continue on the restored twin
        label += use_mmap ? " (mmap reload)" : " (stream reload)";
        const std::string path =
            TempPath("differential_" + std::to_string(seed) + ".vsnp");
        ASSERT_TRUE(engine->SaveSnapshot(path).ok()) << label;
        SnapshotLoadOptions load;
        load.use_mmap = use_mmap;
        auto twin = Recommender::LoadSnapshot(path, load);
        std::remove(path.c_str());
        ASSERT_TRUE(twin.ok()) << label << ": " << twin.status().ToString();
        EXPECT_EQ((*twin)->generation(), engine->generation()) << label;
        engine = std::move(twin).value();
        use_mmap = !use_mmap;
        break;
      }
    }
    ASSERT_TRUE(engine->CheckInvariants().ok()) << label;
    ExpectMatchesOracle(*engine, oracle, ids, k, nullptr, label);
  }
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  static const char* const kModes[] = {"None", "Exact", "Sar", "SarHash"};
  static const char* const kRules[] = {"Weighted", "Average", "Max"};
  static const char* const kContent[] = {"Lsb", "Exhaustive", "SocialOnly",
                                         "Dtw"};
  return std::string(kModes[int(std::get<0>(info.param))]) +
         kRules[int(std::get<1>(info.param))] +
         kContent[int(std::get<2>(info.param))];
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (const SocialMode mode : {SocialMode::kNone, SocialMode::kExact,
                                SocialMode::kSar, SocialMode::kSarHash}) {
    for (const FusionRule rule :
         {FusionRule::kWeighted, FusionRule::kAverage, FusionRule::kMax}) {
      for (const ContentConfig content :
           {ContentConfig::kLsb, ContentConfig::kExhaustive,
            ContentConfig::kSocialOnly, ContentConfig::kDtw}) {
        // Neither content nor social: not a valid engine configuration.
        if (mode == SocialMode::kNone &&
            content == ContentConfig::kSocialOnly) {
          continue;
        }
        configs.emplace_back(mode, rule, content);
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, OracleDifferentialTest,
                         ::testing::ValuesIn(AllConfigs()), ConfigName);

}  // namespace
}  // namespace vrec::core
