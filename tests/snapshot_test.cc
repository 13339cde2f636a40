// Snapshot round-trip equivalence: a LoadSnapshot()ed engine must be
// indistinguishable — bit for bit — from the engine that saved it, across
// every social mode and fusion rule, through post-load mutations, through
// the serving stack, and across a sharded fleet (the content
// configurations — exhaustive, SR, DTW — round-trip in
// oracle_differential_test.cc, checked against the reference oracle). Also
// locks the result-cache staleness contract: the persisted generation
// survives the reload (a loaded engine must NOT reset to generation 0, or
// a by-id cache stamped before a restart would serve stale results).
// Runs in CI via ctest -R Snapshot.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "client/client.h"
#include "core/recommender.h"
#include "io/snapshot.h"
#include "server/server.h"
#include "shard/sharded_recommender.h"
#include "util/random.h"

namespace vrec::io {
namespace {

using core::Recommender;
using core::RecommenderOptions;
using core::ScoredVideo;
using core::SnapshotLoadOptions;
using core::SocialMode;
using shard::ShardedRecommender;
using shard::ShardOptions;
using signature::SignatureSeries;
using social::SocialDescriptor;

constexpr int kVideos = 48;
constexpr int kUsers = 40;

SignatureSeries MakeSeries(int cluster, Rng* rng) {
  SignatureSeries s;
  for (int i = 0; i < 4; ++i) {
    const double base = 40.0 * cluster - 60.0;
    s.push_back({{base + rng->Uniform(-3.0, 3.0), 1.0}});
  }
  return s;
}

SocialDescriptor MakeDescriptor(int group, Rng* rng) {
  std::vector<social::UserId> users;
  const int base = group * (kUsers / 4);
  for (int i = 0; i < 6; ++i) {
    users.push_back((base + rng->UniformInt(0, kUsers / 2)) % kUsers);
  }
  return SocialDescriptor(users);
}

RecommenderOptions BaseOptions(SocialMode mode) {
  RecommenderOptions options;
  options.social_mode = mode;
  options.k_subcommunities = 4;
  options.max_candidates = 24;
  options.num_threads = 1;
  return options;
}

template <typename Engine>
void Ingest(Engine* engine) {
  Rng rng(20150531);
  for (int v = 0; v < kVideos; ++v) {
    const int cluster = v % 4;
    ASSERT_TRUE(engine
                    ->AddVideoRecord(v, MakeSeries(cluster, &rng),
                                     MakeDescriptor(cluster, &rng))
                    .ok());
  }
  ASSERT_TRUE(engine->Finalize(kUsers).ok());
}

std::unique_ptr<Recommender> Build(const RecommenderOptions& options) {
  auto rec = std::make_unique<Recommender>(options);
  Ingest(rec.get());
  return rec;
}

std::string TempPath(const std::string& name) {
  // ctest runs each discovered test as its own process against the same
  // TempDir; the pid keeps concurrent tests off each other's files.
  return ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "." +
         name;
}

/// Every query of the corpus, bit for bit: same ids in the same order with
/// identical IEEE-754 doubles for the fused score and both components.
template <typename EngineA, typename EngineB>
void ExpectSameEngine(const EngineA& expected, const EngineB& actual,
                      const std::string& label) {
  for (int v = 0; v < kVideos; ++v) {
    const auto want = expected.RecommendById(v, 10);
    const auto got = actual.RecommendById(v, 10);
    if (!want.ok()) {
      EXPECT_FALSE(got.ok()) << label << " query " << v;
      EXPECT_EQ(want.status().code(), got.status().code())
          << label << " query " << v;
      continue;
    }
    ASSERT_TRUE(got.ok()) << label << " query " << v << ": "
                          << got.status().ToString();
    ASSERT_EQ(want->size(), got->size()) << label << " query " << v;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].id, (*got)[i].id)
          << label << " query " << v << " #" << i;
      EXPECT_EQ((*want)[i].score, (*got)[i].score)
          << label << " query " << v << " #" << i;
      EXPECT_EQ((*want)[i].content, (*got)[i].content)
          << label << " query " << v << " #" << i;
      EXPECT_EQ((*want)[i].social, (*got)[i].social)
          << label << " query " << v << " #" << i;
    }
  }
}

/// Save -> load (both mapped and streamed) -> full bit-for-bit comparison
/// against the never-saved original.
void ExpectRoundTrip(const RecommenderOptions& options,
                     const std::string& label) {
  SCOPED_TRACE(label);
  const auto original = Build(options);
  const std::string path = TempPath("roundtrip_" + label + ".vsnp");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  SnapshotLoadOptions mapped;
  mapped.use_mmap = true;
  const auto via_map = Recommender::LoadSnapshot(path, mapped);
  ASSERT_TRUE(via_map.ok()) << via_map.status().ToString();
  EXPECT_TRUE((*via_map)->finalized());
  ExpectSameEngine(*original, **via_map, label + "/mmap");

  SnapshotLoadOptions streamed;
  streamed.use_mmap = false;
  const auto via_stream = Recommender::LoadSnapshot(path, streamed);
  ASSERT_TRUE(via_stream.ok()) << via_stream.status().ToString();
  // The streamed load owns every byte; only the mapped load may pin flats.
  EXPECT_EQ((*via_stream)->snapshot_bytes_mapped(), 0u);
  ExpectSameEngine(*original, **via_stream, label + "/stream");

  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripMatchesAcrossSocialModes) {
  ExpectRoundTrip(BaseOptions(SocialMode::kNone), "none");
  ExpectRoundTrip(BaseOptions(SocialMode::kExact), "exact");
  ExpectRoundTrip(BaseOptions(SocialMode::kSar), "sar");
  ExpectRoundTrip(BaseOptions(SocialMode::kSarHash), "sarhash");
}

TEST(SnapshotTest, RoundTripMatchesAcrossFusionRules) {
  for (const auto rule :
       {core::FusionRule::kWeighted, core::FusionRule::kAverage,
        core::FusionRule::kMax}) {
    auto options = BaseOptions(SocialMode::kSarHash);
    options.fusion_rule = rule;
    ExpectRoundTrip(options,
                    "fusion" + std::to_string(static_cast<int>(rule)));
  }
}

TEST(SnapshotTest, MappedLoadAdoptsFlatPoolsZeroCopy) {
  const auto original = Build(BaseOptions(SocialMode::kSarHash));
  const std::string path = TempPath("zerocopy.vsnp");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  const auto loaded = Recommender::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The prepared + histogram flats are non-empty and the mapped load must
  // adopt them in place rather than copying.
  EXPECT_GT((*loaded)->snapshot_bytes_mapped(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, GenerationSurvivesReload) {
  const auto original = Build(BaseOptions(SocialMode::kSarHash));
  // Advance the engine past its Finalize generation so a reset-to-zero or
  // reset-to-one regression cannot hide.
  ASSERT_TRUE(original->RemoveVideo(7).ok());
  ASSERT_TRUE(original->RemoveVideo(11).ok());
  const uint64_t saved_generation = original->generation();
  ASSERT_GT(saved_generation, 1u);

  const std::string path = TempPath("generation.vsnp");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  const auto loaded = Recommender::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The staleness contract: a by-id result cache stamps entries with the
  // engine generation. If a reload reset it to 0, entries cached against
  // the pre-restart engine would validate against the restarted one.
  EXPECT_NE((*loaded)->generation(), 0u);
  EXPECT_EQ((*loaded)->generation(), saved_generation);
  std::remove(path.c_str());
}

TEST(SnapshotTest, PostLoadMutationsMatchNeverSavedTwin) {
  const auto options = BaseOptions(SocialMode::kSarHash);
  const auto twin = Build(options);
  const auto original = Build(options);
  const std::string path = TempPath("mutate.vsnp");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  const auto loaded = Recommender::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  // The loaded engine adopted its pools from the mapping; mutation must
  // transparently materialize owned copies and keep matching the twin.
  for (const video::VideoId victim : {3, 17, 42}) {
    ASSERT_TRUE(twin->RemoveVideo(victim).ok());
    ASSERT_TRUE((*loaded)->RemoveVideo(victim).ok());
  }
  std::vector<social::SocialConnection> connections;
  for (int i = 0; i < 10; ++i) {
    connections.push_back({static_cast<social::UserId>(i),
                           static_cast<social::UserId>((i * 7 + 3) % kUsers),
                           1.0});
  }
  std::vector<std::pair<video::VideoId, social::UserId>> comments;
  for (int v = 0; v < kVideos; v += 5) {
    comments.emplace_back(v, static_cast<social::UserId>((v * 3) % kUsers));
  }
  const auto twin_stats = twin->ApplySocialUpdate(connections, comments);
  const auto loaded_stats = (*loaded)->ApplySocialUpdate(connections, comments);
  ASSERT_TRUE(twin_stats.ok()) << twin_stats.status().ToString();
  ASSERT_TRUE(loaded_stats.ok()) << loaded_stats.status().ToString();
  EXPECT_EQ(twin_stats->merges, loaded_stats->merges);
  EXPECT_EQ(twin_stats->splits, loaded_stats->splits);

  ExpectSameEngine(*twin, **loaded, "post-mutation");
  EXPECT_EQ(twin->generation(), (*loaded)->generation());
}

TEST(SnapshotTest, ReloadedSnapshotOfMutatedEngineMatches) {
  // Save -> load -> mutate -> save again -> load again: the second
  // generation of snapshot (written from a mapped, then materialized
  // engine) must still round-trip exactly.
  const auto original = Build(BaseOptions(SocialMode::kSar));
  const std::string first = TempPath("resave_first.vsnp");
  ASSERT_TRUE(original->SaveSnapshot(first).ok());
  auto loaded = Recommender::LoadSnapshot(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(original->RemoveVideo(5).ok());
  ASSERT_TRUE((*loaded)->RemoveVideo(5).ok());

  const std::string second = TempPath("resave_second.vsnp");
  ASSERT_TRUE((*loaded)->SaveSnapshot(second).ok());
  const auto reloaded = Recommender::LoadSnapshot(second);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSameEngine(*original, **reloaded, "resave");
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(SnapshotTest, ServedSnapshotMatchesDirectCallsBitForBit) {
  const auto twin = Build(BaseOptions(SocialMode::kSarHash));
  const auto original = Build(BaseOptions(SocialMode::kSarHash));
  const std::string path = TempPath("served.vsnp");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  const auto loaded = Recommender::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  // Front the *loaded* engine with the full serving stack and compare the
  // wire answers against direct calls on the never-saved twin.
  server::ServerOptions server_options;
  server::RecommendServer srv(loaded->get(), server_options);
  ASSERT_TRUE(srv.Start().ok());
  client::Client cli;
  ASSERT_TRUE(cli.Connect("localhost", srv.port()).ok());
  for (int v = 0; v < kVideos; ++v) {
    const auto want = twin->RecommendById(v, 10);
    ASSERT_TRUE(want.ok());
    server::QueryByIdRequest request;
    request.video = v;
    request.k = 10;
    const auto response = cli.QueryById(request);
    ASSERT_TRUE(response.ok()) << "query " << v;
    ASSERT_TRUE(response->status.ok()) << "query " << v;
    ASSERT_EQ(response->results.size(), want->size()) << "query " << v;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(response->results[i].id, (*want)[i].id);
      EXPECT_EQ(response->results[i].score, (*want)[i].score);
      EXPECT_EQ(response->results[i].content, (*want)[i].content);
      EXPECT_EQ(response->results[i].social, (*want)[i].social);
    }
  }
  srv.Shutdown();
}

TEST(SnapshotTest, SaveRequiresFinalizedEngine) {
  Recommender rec(BaseOptions(SocialMode::kSarHash));
  const Status s = rec.SaveSnapshot(TempPath("unfinalized.vsnp"));
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition);
}

TEST(SnapshotTest, SaveRejectsInvalidFleetCoordinates) {
  const auto rec = Build(BaseOptions(SocialMode::kNone));
  core::SnapshotFleetInfo fleet;
  fleet.shard_index = 3;
  fleet.shard_count = 2;  // index out of range
  const Status s = rec->SaveSnapshot(TempPath("badfleet.vsnp"), fleet);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(SnapshotTest, LoadOverridesThreadCountOnly) {
  auto options = BaseOptions(SocialMode::kSarHash);
  options.num_threads = 1;
  const auto original = Build(options);
  const std::string path = TempPath("threads.vsnp");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  SnapshotLoadOptions load;
  load.num_threads = 2;  // thread-count-deterministic: results identical
  const auto loaded = Recommender::LoadSnapshot(path, load);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameEngine(*original, **loaded, "threads");
  std::remove(path.c_str());
}

TEST(SnapshotTest, InspectReportsFullSectionLayout) {
  const auto rec = Build(BaseOptions(SocialMode::kSarHash));
  const std::string path = TempPath("inspect.vsnp");
  core::SnapshotFleetInfo fleet;
  fleet.shard_index = 2;
  fleet.shard_count = 5;
  fleet.global_digest = 0xABCD1234u;
  ASSERT_TRUE(rec->SaveSnapshot(path, fleet).ok());

  const auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->fleet.shard_index, 2u);
  EXPECT_EQ(info->fleet.shard_count, 5u);
  EXPECT_EQ(info->fleet.global_digest, 0xABCD1234u);
  ASSERT_EQ(info->sections.size(), size_t{kSnapshotSectionCount});
  for (uint32_t i = 0; i < kSnapshotSectionCount; ++i) {
    EXPECT_EQ(info->sections[i].id, i + 1);
  }
  // The zero-copy contract: every flat-pool payload sits on an alignment
  // boundary in the file.
  for (const auto id :
       {kSectionPreparedValues, kSectionPreparedWeights, kSectionPreparedCdf,
        kSectionPreparedMeans, kSectionHistogramBins,
        kSectionHistogramWeights}) {
    EXPECT_EQ(info->sections[id - 1].payload_offset % kSnapshotAlignment, 0u)
        << "section " << id;
    EXPECT_GT(info->sections[id - 1].payload_bytes, 0u) << "section " << id;
  }
  std::remove(path.c_str());
}

// --- Sharded fleet snapshot sets. ------------------------------------------

std::unique_ptr<ShardedRecommender> BuildFleet(
    const RecommenderOptions& options, int num_shards) {
  ShardOptions shard_options;
  shard_options.num_shards = num_shards;
  shard_options.threads_per_shard = 1;
  auto fleet = std::make_unique<ShardedRecommender>(shard_options, options);
  Ingest(fleet.get());
  return fleet;
}

RecommenderOptions FleetOptions() {
  // Exhaustive-admission regime (see sharded_equivalence_test.cc): the
  // merged union equals the single-box candidate pool, so the fleet is
  // bit-identical to the single box and the loaded fleet must be too.
  auto options = BaseOptions(SocialMode::kSarHash);
  options.max_candidates = 64;
  options.lsb_probes = 256;
  return options;
}

TEST(SnapshotShardedTest, FleetRoundTripMatchesSingleBox) {
  const auto options = FleetOptions();
  const auto single = Build(options);
  const auto fleet = BuildFleet(options, 4);
  EXPECT_NE(fleet->global_digest(), 0u);

  const std::string dir = TempPath("fleet_set");
  ASSERT_TRUE(fleet->SaveSnapshots(dir).ok());
  const auto loaded = ShardedRecommender::LoadSnapshots(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_shards(), 4u);
  EXPECT_TRUE((*loaded)->finalized());
  EXPECT_EQ((*loaded)->global_digest(), fleet->global_digest());
  EXPECT_EQ((*loaded)->generation(), fleet->generation());
  EXPECT_EQ((*loaded)->video_count(), static_cast<size_t>(kVideos));

  ExpectSameEngine(*single, **loaded, "fleet");

  // Post-load mutation keeps matching a never-saved fleet.
  ASSERT_TRUE((*loaded)->RemoveVideo(9).ok());
  ASSERT_TRUE(fleet->RemoveVideo(9).ok());
  ExpectSameEngine(*fleet, **loaded, "fleet-post-remove");
}

TEST(SnapshotShardedTest, MixedSnapshotSetsAreRejected) {
  const auto options = FleetOptions();
  const auto fleet_a = BuildFleet(options, 2);

  // A fleet over a *different corpus* (one extra record changes the global
  // descriptor digest).
  ShardOptions two;
  two.num_shards = 2;
  two.threads_per_shard = 1;
  auto fleet_b = std::make_unique<ShardedRecommender>(two, options);
  {
    Rng rng(20150531);
    for (int v = 0; v < kVideos; ++v) {
      const int cluster = v % 4;
      ASSERT_TRUE(fleet_b
                      ->AddVideoRecord(v, MakeSeries(cluster, &rng),
                                       MakeDescriptor(cluster, &rng))
                      .ok());
    }
    ASSERT_TRUE(fleet_b
                    ->AddVideoRecord(kVideos, MakeSeries(1, &rng),
                                     MakeDescriptor(1, &rng))
                    .ok());
    ASSERT_TRUE(fleet_b->Finalize(kUsers).ok());
  }
  ASSERT_NE(fleet_a->global_digest(), fleet_b->global_digest());

  const std::string dir_a = TempPath("fleet_mix_a");
  const std::string dir_b = TempPath("fleet_mix_b");
  ASSERT_TRUE(fleet_a->SaveSnapshots(dir_a).ok());
  ASSERT_TRUE(fleet_b->SaveSnapshots(dir_b).ok());

  // Splice shard 1 of fleet B into fleet A's set: the digest pinned in the
  // headers disagrees, so the load must refuse to serve the chimera.
  {
    std::ifstream in(dir_b + "/shard-1.vsnp", std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ofstream out(dir_a + "/shard-1.vsnp",
                      std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }
  const auto mixed = ShardedRecommender::LoadSnapshots(dir_a);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), Status::Code::kInvalidArgument);

  // A missing shard file fails cleanly too.
  std::remove((dir_b + "/shard-1.vsnp").c_str());
  const auto incomplete = ShardedRecommender::LoadSnapshots(dir_b);
  EXPECT_FALSE(incomplete.ok());
}

TEST(SnapshotShardedTest, SingleShardFleetInteroperatesWithSingleBoxFile) {
  // A 1-shard fleet's snapshot is a plain single-box snapshot with fleet
  // coordinates (0, 1) — loadable directly by Recommender::LoadSnapshot.
  const auto options = FleetOptions();
  const auto fleet = BuildFleet(options, 1);
  const std::string dir = TempPath("fleet_one");
  ASSERT_TRUE(fleet->SaveSnapshots(dir).ok());

  core::SnapshotFleetInfo info;
  const auto loaded =
      Recommender::LoadSnapshot(dir + "/shard-0.vsnp", {}, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(info.shard_index, 0u);
  EXPECT_EQ(info.shard_count, 1u);
  EXPECT_EQ(info.global_digest, fleet->global_digest());
  ExpectSameEngine(*fleet, **loaded, "one-shard");
}

}  // namespace
}  // namespace vrec::io
