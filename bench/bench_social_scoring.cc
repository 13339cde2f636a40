// Social path: the reference oracle (name-set Equation 5, dense Equation 6
// over every candidate, tests/reference) vs. the engine — id-keyed exact
// Jaccard with cardinality-bound pruning, and sparse histograms with
// posting-driven Σmin scoring off a pooled mirror — in SR configuration
// (use_content = false) so the social stage is the whole query cost.
//
// This is also a smoke gate for scripts/verify.sh and CI: it exits
// non-zero unless (a) every mode returns bit-for-bit the oracle's top-K
// for every query, (b) the shortcut counters fired (the cardinality bound
// pruned merges and ran batched, the posting walk skipped
// disjoint-audience records, SAR scores came off the pool), and
// (c) outside --smoke, the engine's SAR scoring stage runs >= 2x faster
// than the oracle's. Results go to BENCH_social.json.
//
// Usage: bench_social_scoring [--smoke] [repeat] [k] [out.json]
//   --smoke: smaller corpus, one replay, speedup gate advisory only
//   repeat:  replays of the full query list per measurement (default 3)
//   k:       results per query (default 10)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_oracle.h"
#include "reference/kernels.h"
#include "social/sar.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace vrec::bench {
namespace {

struct Measurement {
  double total_ms = 0.0;
  double refine_ms = 0.0;  // pool scoring (pure social: content is off)
  size_t jaccard_calls = 0;
  size_t social_candidates_skipped = 0;
  size_t exact_social_pruned = 0;
  size_t pool_bytes_streamed = 0;
  size_t bound_batches = 0;
  std::vector<std::vector<core::ScoredVideo>> results;
};

Measurement RunQueries(const core::Recommender& rec,
                       const std::vector<video::VideoId>& queries, int k) {
  Measurement m;
  m.results.reserve(queries.size());
  for (const video::VideoId q : queries) {
    core::QueryTiming timing;
    auto results = rec.RecommendById(q, k, &timing);
    if (!results.ok()) {
      std::fprintf(stderr, "query %lld failed: %s\n",
                   static_cast<long long>(q),
                   results.status().ToString().c_str());
      std::abort();
    }
    m.total_ms += timing.total_ms;
    m.refine_ms += timing.refine_ms;
    m.jaccard_calls += timing.jaccard_calls;
    m.social_candidates_skipped += timing.social_candidates_skipped;
    m.exact_social_pruned += timing.exact_social_pruned;
    m.pool_bytes_streamed += timing.pool_bytes_streamed;
    m.bound_batches += timing.bound_batches;
    m.results.push_back(std::move(results).value());
  }
  return m;
}

Measurement RunOracle(const reference::Oracle& oracle,
                      const std::vector<video::VideoId>& queries, int k) {
  Measurement m;
  m.results.reserve(queries.size());
  Stopwatch timer;
  for (const video::VideoId q : queries) {
    reference::Oracle::Timing timing;
    auto results = oracle.RecommendById(q, k, &timing);
    if (!results.ok()) {
      std::fprintf(stderr, "oracle query %lld failed: %s\n",
                   static_cast<long long>(q),
                   results.status().ToString().c_str());
      std::abort();
    }
    m.refine_ms += timing.refine_ms;
    m.results.push_back(std::move(results).value());
  }
  m.total_ms = timer.ElapsedMillis();
  return m;
}

struct ModeResult {
  std::string name;
  double oracle_ms = 0.0;          // per query, wall time
  double engine_ms = 0.0;          // per query, QueryTiming::total_ms
  double oracle_scoring_ms = 0.0;  // per query, pool scoring only
  double engine_scoring_ms = 0.0;  // per query, pool scoring only
  double speedup = 0.0;            // end to end
  double scoring_speedup = 0.0;    // the stage the posting walk targets
  double jaccard_calls = 0.0;  // per query
  double skipped = 0.0;        // per query
  double pruned = 0.0;         // per query
  double pool_bytes = 0.0;     // per query
  double batches = 0.0;        // per query
  bool equivalent = false;
};

// Kernel-level cost of the sparse form: dense O(k) min/max sweeps vs.
// two-pointer merges over the non-zero bins, on the same random
// histograms.
void KernelMicrobench(double* dense_us, double* sparse_us) {
  Rng rng(131);
  const int users = 600;
  const int k = 128;
  std::vector<int> labels(users);
  for (int u = 0; u < users; ++u) {
    labels[static_cast<size_t>(u)] = static_cast<int>(rng.UniformInt(0, k - 1));
  }
  const social::UserDictionary dict(labels, k,
                                    social::DictionaryLookup::kChainedHash);
  std::vector<std::vector<double>> dense;
  std::vector<social::SparseHistogram> sparse;
  for (int i = 0; i < 64; ++i) {
    social::SocialDescriptor d;
    const int fans = static_cast<int>(rng.UniformInt(3, 30));
    for (int f = 0; f < fans; ++f) {
      const auto u = static_cast<social::UserId>(rng.UniformInt(0, users - 1));
      if (!d.Contains(u)) d.Add(u);
    }
    dense.push_back(reference::Vectorize(dict, d));
    sparse.push_back(dict.VectorizeSparse(d));
  }
  const int rounds = 2000;
  double sink = 0.0;
  Stopwatch timer;
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < dense.size(); ++i) {
      sink +=
          reference::ApproxJaccard(dense[i], dense[(i + 1) % dense.size()]);
    }
  }
  *dense_us = 1e6 * timer.ElapsedSeconds() /
              static_cast<double>(rounds * dense.size());
  timer.Restart();
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < sparse.size(); ++i) {
      sink += social::ApproxJaccardSparse(sparse[i],
                                          sparse[(i + 1) % sparse.size()]);
    }
  }
  *sparse_us = 1e6 * timer.ElapsedSeconds() /
               static_cast<double>(rounds * sparse.size());
  if (sink < 0.0) std::printf("impossible %f\n", sink);  // keep `sink` live
}

// One row of the comparison: the engine runs `mode` in SR configuration;
// the oracle answers the same queries once each.
ModeResult RunMode(const datagen::Dataset& dataset, core::SocialMode mode,
                   const std::string& name, int repeat, int k,
                   size_t max_candidates) {
  core::RecommenderOptions options;
  options.social_mode = mode;
  options.use_content = false;  // SR: the social stage is the query
  options.k_subcommunities = 128;
  // A tight pool makes the exact candidate heap fill, which is what arms
  // the cardinality bound.
  options.max_candidates = max_candidates;

  std::vector<video::VideoId> corpus_ids;
  for (size_t v = 0; v < dataset.video_count(); ++v) {
    corpus_ids.push_back(static_cast<video::VideoId>(v));
  }
  std::vector<video::VideoId> queries;
  for (int r = 0; r < repeat; ++r) {
    queries.insert(queries.end(), corpus_ids.begin(), corpus_ids.end());
  }

  const auto engine = BuildRecommender(dataset, options);
  RunQueries(*engine, {0}, k);  // warm-up, then measure
  const Measurement fast = RunQueries(*engine, queries, k);
  const auto oracle = BuildOracle(dataset, *engine);
  RunOracle(*oracle, {0}, k);
  const Measurement naive = RunOracle(*oracle, corpus_ids, k);

  const double n = static_cast<double>(queries.size());
  ModeResult r;
  r.name = name;
  r.oracle_ms = naive.total_ms / static_cast<double>(corpus_ids.size());
  r.engine_ms = fast.total_ms / n;
  r.speedup = r.oracle_ms / r.engine_ms;
  r.oracle_scoring_ms =
      naive.refine_ms / static_cast<double>(corpus_ids.size());
  r.engine_scoring_ms = fast.refine_ms / n;
  r.scoring_speedup = r.oracle_scoring_ms / r.engine_scoring_ms;
  r.jaccard_calls = static_cast<double>(fast.jaccard_calls) / n;
  r.skipped = static_cast<double>(fast.social_candidates_skipped) / n;
  r.pruned = static_cast<double>(fast.exact_social_pruned) / n;
  r.pool_bytes = static_cast<double>(fast.pool_bytes_streamed) / n;
  r.batches = static_cast<double>(fast.bound_batches) / n;
  // The oracle answered each query once; compare with the first replay.
  r.equivalent = Identical(
      std::vector<std::vector<core::ScoredVideo>>(
          fast.results.begin(),
          fast.results.begin() + static_cast<long>(corpus_ids.size())),
      naive.results);
  std::printf("%-6s oracle %.3f -> engine %.3f ms/query (%.2fx), scoring "
              "%.4f -> %.4f ms/query (%.2fx)\n"
              "       Jaccard %.0f, skipped %.0f, pruned %.0f, pool B %.0f, "
              "batches %.1f  %s\n",
              name.c_str(), r.oracle_ms, r.engine_ms, r.speedup,
              r.oracle_scoring_ms, r.engine_scoring_ms, r.scoring_speedup,
              r.jaccard_calls, r.skipped, r.pruned, r.pool_bytes, r.batches,
              r.equivalent ? "MATCH" : "MISMATCH");
  return r;
}

int Run(bool smoke, int repeat, int k, const std::string& out_path) {
  // Both datasets share a strong Zipf skew, so audience sizes span two
  // orders of magnitude — the regime where the cardinality bound separates
  // candidates. They differ in cross-group interest: the exact-mode corpus
  // raises it so overlaps are plentiful (the candidate heap fills with
  // meaningful scores and the bound has a bar to beat), while the SAR
  // corpus keeps audiences cliquish so disjoint sub-communities exist for
  // the posting walk to skip.
  datagen::DatasetOptions exact_options = EffectivenessDatasetOptions();
  exact_options.community.popularity_skew = 1.1;
  exact_options.community.offtopic_rate = 0.05;
  exact_options.community.secondary_interest = 0.3;
  exact_options.community.interest_floor = 0.01;
  datagen::DatasetOptions sar_options = EffectivenessDatasetOptions();
  sar_options.community.popularity_skew = 1.1;
  if (smoke) {
    exact_options.community.months = 8;
    exact_options.source_months = 6;
    sar_options.community.months = 8;
    sar_options.source_months = 6;
  }
  std::printf("generating corpora...\n");
  const datagen::Dataset exact_data = datagen::GenerateDataset(exact_options);
  const datagen::Dataset sar_data = datagen::GenerateDataset(sar_options);
  std::printf("  %zu videos, %zu users\n", exact_data.video_count(),
              exact_data.community.user_count);

  // Exact mode gets a tight pool so the candidate heap fills and the bound
  // can reject merges; the SAR modes keep a wide pool so the scoring stage
  // carries real work.
  const ModeResult exact =
      RunMode(exact_data, core::SocialMode::kExact, "exact", repeat, k, 12);
  const ModeResult sar =
      RunMode(sar_data, core::SocialMode::kSar, "sar", repeat, k, 400);
  const ModeResult sarh =
      RunMode(sar_data, core::SocialMode::kSarHash, "sar-h", repeat, k, 400);

  double kernel_dense_us = 0.0;
  double kernel_sparse_us = 0.0;
  KernelMicrobench(&kernel_dense_us, &kernel_sparse_us);
  std::printf("Jaccard kernel: dense %.4f us, sparse %.4f us  ->  %.2fx\n",
              kernel_dense_us, kernel_sparse_us,
              kernel_dense_us / kernel_sparse_us);

  const bool equivalent =
      exact.equivalent && sar.equivalent && sarh.equivalent;
  const bool counters_fired = exact.pruned > 0.0 && exact.batches > 0.0 &&
                              sar.skipped > 0.0 && sarh.skipped > 0.0 &&
                              sar.pool_bytes > 0.0 && sarh.pool_bytes > 0.0;
  // The >= 2x full-mode gate is on the SAR scoring stage: Σmin lookups
  // from the posting walk against the oracle's dense Equation 6 per pool
  // member.
  const double sar_speedup =
      std::min(sar.scoring_speedup, sarh.scoring_speedup);
  const bool fast_enough = sar_speedup >= 2.0;
  std::printf("equivalence: %s, shortcuts fired: %s, SAR scoring stage "
              "engine vs oracle %.2fx (gate >= 2x%s): %s\n",
              equivalent ? "PASS" : "FAIL",
              counters_fired ? "PASS" : "FAIL", sar_speedup,
              smoke ? ", advisory under --smoke" : "",
              fast_enough ? "PASS" : "FAIL");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"smoke\": %s,\n"
               "  \"engine_queries_per_mode\": %zu,\n"
               "  \"oracle_queries_per_mode\": %zu,\n"
               "  \"k\": %d,\n"
               "  \"modes\": {\n",
               smoke ? "true" : "false",
               exact_data.video_count() * static_cast<size_t>(repeat),
               exact_data.video_count(), k);
  const ModeResult* results[] = {&exact, &sar, &sarh};
  constexpr size_t kRows = sizeof(results) / sizeof(results[0]);
  for (size_t i = 0; i < kRows; ++i) {
    const ModeResult& r = *results[i];
    std::fprintf(out,
                 "    \"%s\": {\n"
                 "      \"oracle_ms_per_query\": %.6f,\n"
                 "      \"engine_ms_per_query\": %.6f,\n"
                 "      \"oracle_scoring_ms_per_query\": %.6f,\n"
                 "      \"engine_scoring_ms_per_query\": %.6f,\n"
                 "      \"speedup\": %.4f,\n"
                 "      \"scoring_speedup\": %.4f,\n"
                 "      \"jaccard_calls_per_query\": %.2f,\n"
                 "      \"candidates_skipped_per_query\": %.2f,\n"
                 "      \"exact_merges_pruned_per_query\": %.2f,\n"
                 "      \"pool_bytes_streamed_per_query\": %.1f,\n"
                 "      \"bound_batches_per_query\": %.2f,\n"
                 "      \"equivalent\": %s\n"
                 "    }%s\n",
                 r.name.c_str(), r.oracle_ms, r.engine_ms,
                 r.oracle_scoring_ms, r.engine_scoring_ms, r.speedup,
                 r.scoring_speedup, r.jaccard_calls, r.skipped, r.pruned, r.pool_bytes,
                 r.batches, r.equivalent ? "true" : "false",
                 i + 1 < kRows ? "," : "");
  }
  std::fprintf(out,
               "  },\n"
               "  \"kernel_dense_us\": %.4f,\n"
               "  \"kernel_sparse_us\": %.4f,\n"
               "  \"sar_stage_speedup\": %.4f,\n"
               "  \"equivalent\": %s,\n"
               "  \"shortcuts_fired\": %s\n"
               "}\n",
               kernel_dense_us, kernel_sparse_us, sar_speedup,
               equivalent ? "true" : "false",
               counters_fired ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!equivalent || !counters_fired) return 1;
  if (!smoke && !fast_enough) return 1;
  return 0;
}

}  // namespace
}  // namespace vrec::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<int> numbers;
  std::string out = "BENCH_social.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (!arg.empty() &&
               arg.find_first_not_of("0123456789") == std::string::npos) {
      numbers.push_back(std::atoi(arg.c_str()));
    } else {
      out = arg;
    }
  }
  const int repeat = !numbers.empty() && numbers[0] > 0 ? numbers[0]
                                                        : (smoke ? 1 : 3);
  const int k = numbers.size() > 1 && numbers[1] > 0 ? numbers[1] : 10;
  return vrec::bench::Run(smoke, repeat, k, out);
}
