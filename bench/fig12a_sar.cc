// Figure 12 (a): effect of the social relevance optimizations on query
// time. Varies the dataset scale from 50 to 200 "hours" and times the
// average recommendation under:
//   CSF        - exact Jaccard (Eq. 5) by sorted-id merge, with the
//                cardinality bound skipping dominated merges
//   CSF-SAR    - sub-community histograms, linear-scan dictionary
//   CSF-SAR-H  - sub-community histograms, chained hash dictionary
// Paper: CSF slowest by a wide margin; SAR cuts the cost; hashing cuts the
// dictionary-lookup share further.

#include <cstdio>

#include "bench_common.h"
#include "util/stopwatch.h"

namespace {

struct QueryCost {
  double total_ms = 0.0;
  double social_ms = 0.0;
};

QueryCost AverageQueryMs(const vrec::datagen::Dataset& dataset,
                         vrec::core::Recommender* rec, int repeats = 3) {
  const auto queries = dataset.QueryVideoIds();
  QueryCost cost;
  int count = 0;
  for (int r = 0; r < repeats; ++r) {
    for (vrec::video::VideoId q : queries) {
      vrec::core::QueryTiming timing;
      const auto results = rec->RecommendById(q, 20, &timing);
      if (!results.ok()) std::abort();
      cost.total_ms += timing.total_ms;
      cost.social_ms += timing.social_ms;
      ++count;
    }
  }
  cost.total_ms /= count;
  cost.social_ms /= count;
  return cost;
}

}  // namespace

int main() {
  using namespace vrec;
  std::printf("=== Figure 12(a): SAR and hashing effect on query time "
              "===\n");
  std::printf("(total query ms, with the social-relevance stage — the part "
              "the optimizations target — in parentheses)\n");
  std::printf("%-8s %-8s %-22s %-22s %-22s\n", "hours", "videos", "CSF",
              "CSF-SAR", "CSF-SAR-H");

  for (double hours : {50.0, 100.0, 150.0, 200.0}) {
    datagen::DatasetOptions base = bench::EffectivenessDatasetOptions();
    base.community.num_users = 400 + static_cast<int>(hours) * 4;
    const auto options = datagen::ScaledToHours(base, hours);
    const auto dataset = datagen::GenerateDataset(options);

    QueryCost cost[3];
    const core::SocialMode modes[3] = {core::SocialMode::kExact,
                                       core::SocialMode::kSar,
                                       core::SocialMode::kSarHash};
    for (int i = 0; i < 3; ++i) {
      core::RecommenderOptions ro;
      ro.social_mode = modes[i];
      auto rec = bench::BuildRecommender(dataset, ro);
      cost[i] = AverageQueryMs(dataset, rec.get());
    }
    char col[3][64];
    for (int i = 0; i < 3; ++i) {
      std::snprintf(col[i], sizeof(col[i]), "%.1f (social %.2f)",
                    cost[i].total_ms, cost[i].social_ms);
    }
    std::printf("%-8.0f %-8zu %-22s %-22s %-22s\n", hours,
                dataset.video_count(), col[0], col[1], col[2]);
  }
  std::printf("\nexpected shape: CSF > CSF-SAR > CSF-SAR-H at every scale, "
              "gap widening with size (paper Fig. 12a)\n");
  return 0;
}
