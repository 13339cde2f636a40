// Seed-corpus generator for fuzz_snapshot (built only under
// -DVREC_FUZZ=ON). Writes one valid snapshot per engine configuration
// into the directory given as argv[1]: the full CSF+SAR-hash engine and
// the content-only (CR) mode whose dictionary/maintainer sections and
// histogram flats are empty. Starting from
// valid files lets coverage-guided mutation reach the per-section decoders
// instead of rediscovering the magic, header checksum, and 14-frame table
// from zero.

#include <cstdio>
#include <string>

#include "core/recommender.h"
#include "datagen/dataset.h"

namespace {

vrec::datagen::DatasetOptions TinyDataset() {
  vrec::datagen::DatasetOptions options;
  options.num_topics = 2;
  options.base_videos_per_topic = 2;
  options.corpus.frames_per_video = 16;
  options.corpus.derivatives_per_base = 1;
  options.community.num_users = 30;
  options.community.num_user_groups = 6;
  options.community.months = 4;
  options.source_months = 3;
  return options;
}

bool WriteSeed(const vrec::datagen::Dataset& dataset,
               vrec::core::RecommenderOptions options,
               const std::string& path) {
  options.k_subcommunities = 3;
  options.num_threads = 1;
  vrec::core::Recommender rec(options);
  const auto descriptors = dataset.SourceDescriptors();
  for (size_t v = 0; v < dataset.video_count(); ++v) {
    if (const auto s = rec.AddVideo(dataset.corpus.videos[v], descriptors[v]);
        !s.ok()) {
      std::fprintf(stderr, "seed ingest failed: %s\n", s.ToString().c_str());
      return false;
    }
  }
  if (const auto s = rec.Finalize(dataset.community.user_count); !s.ok()) {
    std::fprintf(stderr, "seed finalize failed: %s\n", s.ToString().c_str());
    return false;
  }
  if (const auto s = rec.SaveSnapshot(path); !s.ok()) {
    std::fprintf(stderr, "seed save failed: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: fuzz_snapshot_corpus OUT_DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  const auto dataset = vrec::datagen::GenerateDataset(TinyDataset());

  vrec::core::RecommenderOptions full;  // CSF + SAR-hash, pools, LSB
  vrec::core::RecommenderOptions content_only;
  content_only.social_mode = vrec::core::SocialMode::kNone;

  if (!WriteSeed(dataset, full, dir + "/seed-full.vsnp") ||
      !WriteSeed(dataset, content_only, dir + "/seed-content-only.vsnp")) {
    return 1;
  }
  std::printf("snapshot seed corpus written to %s\n", dir.c_str());
  return 0;
}
