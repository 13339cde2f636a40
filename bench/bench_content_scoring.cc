// Content-scoring path: the reference oracle's unpruned full scan (naive
// κJ over every pool member, tests/reference) vs. the engine — prepared
// signatures in a SoA pool, EMD-bound pair pruning over batched bound
// matrices, threshold-based top-K refinement and per-query arena scratch —
// in exhaustive content mode (use_lsb_index = false, every query scores
// the whole corpus).
//
// This is also the smoke gate scripts/verify.sh and CI run in Release mode:
// it exits non-zero unless (a) every query returns bit-for-bit the
// oracle's top-K, (b) the prune counters fired, and (c) the pool and
// bound-batch counters fired. The speedup is reported (and written to
// BENCH_content.json) but advisory.
//
// Usage: bench_content_scoring [--smoke] [repeat] [k] [out.json]
//   --smoke: smaller corpus (faster; noisier timings)
//   repeat:  engine replays of the full query list (default 3); the oracle
//            answers each query once
//   k:       results per query (default 10)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_oracle.h"
#include "signature/emd.h"
#include "signature/prepared_signature.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace vrec::bench {
namespace {

struct Measurement {
  double total_ms = 0.0;
  double refine_ms = 0.0;
  size_t emd_calls = 0;
  size_t pairs_pruned = 0;
  size_t candidates_pruned = 0;
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
    m.emd_calls += timing.emd_calls;
    m.pairs_pruned += timing.pairs_pruned;
    m.candidates_pruned += timing.candidates_pruned;
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
    auto results = oracle.RecommendById(q, k);
    if (!results.ok()) {
      std::fprintf(stderr, "oracle query %lld failed: %s\n",
                   static_cast<long long>(q),
                   results.status().ToString().c_str());
      std::abort();
    }
    m.results.push_back(std::move(results).value());
  }
  m.total_ms = timer.ElapsedMillis();
  return m;
}

// Kernel-level cost of the prepared form: EmdExact1D (sort per call) vs.
// EmdPrepared over cached forms, on the same random signature pairs.
void KernelMicrobench(double* naive_us, double* prepared_us) {
  Rng rng(71);
  std::vector<signature::CuboidSignature> raw;
  std::vector<signature::PreparedSignature> prepared;
  for (int i = 0; i < 64; ++i) {
    signature::CuboidSignature sig;
    const int n = static_cast<int>(rng.UniformInt(4, 32));
    double total = 0.0;
    for (int c = 0; c < n; ++c) {
      const double w = rng.Uniform(0.05, 1.0);
      sig.push_back({rng.Uniform(-200.0, 200.0), w});
      total += w;
    }
    for (auto& c : sig) c.weight /= total;
    prepared.push_back(signature::PrepareSignature(sig));
    raw.push_back(std::move(sig));
  }
  const int rounds = 200;
  double sink = 0.0;
  Stopwatch timer;
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < raw.size(); ++i) {
      sink += signature::EmdExact1D(raw[i], raw[(i + 1) % raw.size()]);
    }
  }
  *naive_us = 1e6 * timer.ElapsedSeconds() /
              static_cast<double>(rounds * raw.size());
  timer.Restart();
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < prepared.size(); ++i) {
      sink += signature::EmdPrepared(prepared[i],
                                     prepared[(i + 1) % prepared.size()]);
    }
  }
  *prepared_us = 1e6 * timer.ElapsedSeconds() /
                 static_cast<double>(rounds * prepared.size());
  if (sink < 0.0) std::printf("impossible %f\n", sink);  // keep `sink` live
}

int Run(bool smoke, int repeat, int k, const std::string& out_path) {
  datagen::DatasetOptions data_options = EffectivenessDatasetOptions();
  if (smoke) {
    data_options.community.months = 8;
    data_options.source_months = 6;
  } else {
    // Full mode scales the corpus up: with the exhaustive scan refining
    // every record, a larger corpus shifts refine cost toward the stage-2
    // bound matrices most candidates stop at.
    data_options.num_topics = 60;
    data_options.base_videos_per_topic = 5;
  }
  std::printf("generating corpus...\n");
  const datagen::Dataset dataset = datagen::GenerateDataset(data_options);
  std::printf("  %zu videos, %zu users\n", dataset.video_count(),
              dataset.community.user_count);

  core::RecommenderOptions options;
  options.social_mode = core::SocialMode::kSarHash;
  options.use_lsb_index = false;  // exhaustive: every query scans the corpus

  std::vector<video::VideoId> corpus_ids;
  for (size_t v = 0; v < dataset.video_count(); ++v) {
    corpus_ids.push_back(static_cast<video::VideoId>(v));
  }
  std::vector<video::VideoId> queries;
  for (int r = 0; r < repeat; ++r) {
    queries.insert(queries.end(), corpus_ids.begin(), corpus_ids.end());
  }
  const double n = static_cast<double>(queries.size());
  const double n_oracle = static_cast<double>(corpus_ids.size());

  const auto engine = BuildRecommender(dataset, options);
  RunQueries(*engine, {0}, k);  // warm-up, then measure
  const Measurement fast = RunQueries(*engine, queries, k);
  const auto oracle = BuildOracle(dataset, *engine);
  const Measurement naive = RunOracle(*oracle, corpus_ids, k);

  // The oracle answered each query once; compare it with the engine's
  // first replay.
  const bool equivalent = Identical(
      std::vector<std::vector<core::ScoredVideo>>(
          fast.results.begin(),
          fast.results.begin() + static_cast<long>(corpus_ids.size())),
      naive.results);
  const double naive_ms = naive.total_ms / n_oracle;
  const double fast_ms = fast.total_ms / n;
  std::printf("ms/query: oracle %.3f, engine %.3f (refine %.3f)  ->  "
              "%.2fx\n",
              naive_ms, fast_ms, fast.refine_ms / n, naive_ms / fast_ms);
  std::printf("engine per query: %.0f EMD calls, %.0f pairs pruned, "
              "%.0f candidates pruned, %.0f pool bytes, %.1f bound "
              "batches\n",
              static_cast<double>(fast.emd_calls) / n,
              static_cast<double>(fast.pairs_pruned) / n,
              static_cast<double>(fast.candidates_pruned) / n,
              static_cast<double>(fast.pool_bytes_streamed) / n,
              static_cast<double>(fast.bound_batches) / n);

  double kernel_naive_us = 0.0;
  double kernel_prepared_us = 0.0;
  KernelMicrobench(&kernel_naive_us, &kernel_prepared_us);
  std::printf("EMD kernel: naive %.3f us, prepared %.3f us  ->  %.2fx\n",
              kernel_naive_us, kernel_prepared_us,
              kernel_naive_us / kernel_prepared_us);

  const bool pruned = fast.pairs_pruned > 0 && fast.candidates_pruned > 0;
  const bool counters = fast.pool_bytes_streamed > 0 && fast.bound_batches > 0;
  std::printf("equivalence: %s, bounds fired: %s, pool/bound counters: %s\n",
              equivalent ? "PASS" : "FAIL", pruned ? "PASS" : "FAIL",
              counters ? "PASS" : "FAIL");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"smoke\": %s,\n"
               "  \"videos\": %zu,\n"
               "  \"engine_queries\": %zu,\n"
               "  \"oracle_queries\": %zu,\n"
               "  \"k\": %d,\n"
               "  \"oracle_ms_per_query\": %.6f,\n"
               "  \"engine_ms_per_query\": %.6f,\n"
               "  \"engine_refine_ms_per_query\": %.6f,\n"
               "  \"speedup\": %.4f,\n"
               "  \"emd_calls_per_query\": %.2f,\n"
               "  \"pairs_pruned_per_query\": %.2f,\n"
               "  \"candidates_pruned_per_query\": %.2f,\n"
               "  \"pool_bytes_streamed_per_query\": %.1f,\n"
               "  \"bound_batches_per_query\": %.2f,\n"
               "  \"kernel_naive_us\": %.4f,\n"
               "  \"kernel_prepared_us\": %.4f,\n"
               "  \"equivalent\": %s,\n"
               "  \"bounds_fired\": %s,\n"
               "  \"counters_fired\": %s\n"
               "}\n",
               smoke ? "true" : "false", dataset.video_count(),
               queries.size(), corpus_ids.size(), k, naive_ms, fast_ms,
               fast.refine_ms / n, naive_ms / fast_ms,
               static_cast<double>(fast.emd_calls) / n,
               static_cast<double>(fast.pairs_pruned) / n,
               static_cast<double>(fast.candidates_pruned) / n,
               static_cast<double>(fast.pool_bytes_streamed) / n,
               static_cast<double>(fast.bound_batches) / n, kernel_naive_us,
               kernel_prepared_us, equivalent ? "true" : "false",
               pruned ? "true" : "false", counters ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!equivalent || !pruned || !counters) return 1;
  return 0;
}

}  // namespace
}  // namespace vrec::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<int> numbers;
  std::string out = "BENCH_content.json";
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
