// csf_query: the paper's method, CSF-SAR-H (omega 0.7, k = 60
// sub-communities, LSB index, top-10), over about 3000 generated videos.
// Each round restores the engine from its mmap snapshot and answers the
// same seeded batch of by-id queries on the calling thread.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.h"
#include "core/recommender.h"
#include "io/snapshot.h"
#include "signature/prepared_signature.h"
#include "signature/series_measures.h"
#include "util/random.h"

namespace vrec::csfbench {
namespace {

constexpr int kVideos = 3000;
constexpr int kQueries = 200;  // by-id queries per round
constexpr int kTopK = 10;
constexpr int kMinRounds = 4;
/// Results whose content term is recomputed independently: the top
/// kCheckedRanks entries of the first kCheckedQueries queries.
constexpr int kCheckedQueries = 40;
constexpr int kCheckedRanks = 3;
/// Agreement required between the engine's content term and the
/// independent recomputation (both sum the same few doubles, in a different
/// order).
constexpr double kContentTolerance = 1e-9;

// ---- Independent content measure (Eq. 3-4), sharing no engine code. ------

/// 1-D EMD with ground cost |v - u| between two unit-mass signatures: the
/// L1 distance between their weight CDFs.
double ReferenceEmd(const signature::CuboidSignature& a,
                    const signature::CuboidSignature& b) {
  std::vector<std::pair<double, double>> events;  // (value, signed mass)
  for (const signature::Cuboid& c : a) events.push_back({c.value, c.weight});
  for (const signature::Cuboid& c : b) events.push_back({c.value, -c.weight});
  std::sort(events.begin(), events.end());
  double cdf_gap = 0.0;
  double emd = 0.0;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    cdf_gap += events[i].second;
    emd += std::fabs(cdf_gap) * (events[i + 1].first - events[i].first);
  }
  return emd;
}

/// Extended Jaccard kJ (Eq. 4): greedy one-to-one matching on descending
/// SimC = 1 / (1 + EMD), counting pairs with SimC >= 0.25, over the union
/// size |S1| + |S2| - matched.
double ReferenceKappaJ(const signature::SignatureSeries& s1,
                       const signature::SignatureSeries& s2) {
  if (s1.empty() || s2.empty()) return 0.0;
  struct Pair {
    double sim;
    size_t i;
    size_t j;
  };
  std::vector<Pair> pairs;
  for (size_t i = 0; i < s1.size(); ++i) {
    for (size_t j = 0; j < s2.size(); ++j) {
      const double sim = 1.0 / (1.0 + ReferenceEmd(s1[i], s2[j]));
      if (sim >= 0.25) pairs.push_back({sim, i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.sim != b.sim) return a.sim > b.sim;
    if (a.i != b.i) return a.i < b.i;
    return a.j < b.j;
  });
  std::vector<bool> used1(s1.size()), used2(s2.size());
  double total = 0.0;
  size_t matched = 0;
  for (const Pair& p : pairs) {
    if (used1[p.i] || used2[p.j]) continue;
    used1[p.i] = used2[p.j] = true;
    total += p.sim;
    ++matched;
  }
  return total / static_cast<double>(s1.size() + s2.size() - matched);
}

using Lists =
    std::vector<std::pair<video::VideoId, std::vector<core::ScoredVideo>>>;

}  // namespace

int RunCsfQuery(const Args& args, Report* report) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(args.trace);
  Layers layers;
  EndToEnd e2e;

  const datagen::Dataset dataset =
      datagen::GenerateDataset(InputOptions(kVideos, args.corpus_seed));
  const size_t n = dataset.video_count();
  std::vector<video::VideoId> queries(n);
  for (size_t i = 0; i < n; ++i) queries[i] = static_cast<video::VideoId>(i);
  Rng rng(Mix(args.seed ^ 0x51));
  rng.Shuffle(&queries);
  queries.resize(kQueries);
  std::fprintf(stderr, "csf_query: %zu videos, %zu users, %zu comments\n", n,
               dataset.community.user_count,
               dataset.community.comments.size());

  // ---- Set-up: ingest (segmentation + cuboid signatures), Finalize on
  // every hardware thread (the engine's default), then the snapshot. ----
  core::RecommenderOptions options;  // CSF-SAR-H, omega 0.7, k 60, LSB
  options.num_threads = 0;
  core::Recommender built(options);
  const ScopedPath snapshot(args.out_dir + "/csf_query-" +
                            std::to_string(args.seed) + ".vsnp");
  const std::string& path = snapshot.path();
  if (!BuildAndSave(
          &built, dataset, [&] { return built.SaveSnapshot(path); }, {path},
          &layers, &e2e, report)) {
    return 1;
  }

  // ---- Reference answers from the built engine, and their checks. ----
  Lists reference;
  for (video::VideoId q : queries) {
    auto r = built.RecommendById(q, kTopK);
    report->Check(r.ok(), "built engine query " + std::to_string(q) +
                              " failed");
    reference.push_back({q, r.ok() ? *r : std::vector<core::ScoredVideo>{}});
  }
  const double omega = options.omega;
  for (size_t qi = 0; qi < reference.size(); ++qi) {
    const auto& [q, list] = reference[qi];
    CheckRanking(report, q, list, kTopK, "csf_query");
    for (size_t rank = 0; rank < list.size(); ++rank) {
      const core::ScoredVideo& r = list[rank];
      const double fused = (1.0 - omega) * r.content + omega * r.social;
      report->Check(std::fabs(fused - r.score) <= 1e-12,
                    "score is not (1-omega)*content + omega*social for " +
                        std::to_string(q) + " -> " + std::to_string(r.id));
      if (qi < kCheckedQueries && rank < kCheckedRanks) {
        const double content =
            ReferenceKappaJ(*built.SeriesOf(q), *built.SeriesOf(r.id));
        report->Check(std::fabs(content - r.content) <= kContentTolerance,
                      "content term of " + std::to_string(q) + " -> " +
                          std::to_string(r.id) + " is " +
                          std::to_string(r.content) + ", recomputed " +
                          std::to_string(content));
      }
    }
  }
  e2e.rating_at_10 = PaperRating(built, dataset, report);

  if (args.trace) {
    // KappaJPrepared on candidate pairs sampled from the workload.
    std::vector<std::pair<signature::PreparedSeries,
                          signature::PreparedSeries>> pairs;
    for (const auto& [q, list] : reference) {
      for (const core::ScoredVideo& r : list) {
        pairs.push_back({signature::PrepareSeries(*built.SeriesOf(q)),
                         signature::PrepareSeries(*built.SeriesOf(r.id))});
      }
    }
    signature::KappaJScratch scratch;
    double sink = 0.0;
    const auto kj_start = Clock::now();
    for (const auto& [a, b] : pairs) {
      Span span("signature.kappaj");
      sink += signature::KappaJPrepared(a, b, options.kappa, true, &scratch);
    }
    layers["signature.kappaj_us"] = {
        MillisSince(kj_start) * 1e3 / static_cast<double>(pairs.size()),
        "us"};
    report->Check(std::isfinite(sink), "KappaJPrepared returned non-finite");
  }

  // ---- Timed rounds: restore, then the query batch. ----
  core::SnapshotLoadOptions load;
  load.use_mmap = true;
  load.num_threads = 1;
  std::vector<double> round_ms, query_ms, restore_ms;
  std::vector<double> traced_round_ms, untraced_round_ms;
  BestTimes best_query;
  std::vector<double> latencies;
  core::QueryTiming traced_sum;
  size_t traced_queries = 0;
  double first_query_ms = 0.0;
  size_t bytes_mapped = 0;
  const auto rounds_start = Clock::now();
  for (int round = 0;
       round < kMinRounds || SecondsSince(rounds_start) < args.seconds;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    double restore = 0.0;
    auto restored = RestoreRepeatedly(
        "io.restore",
        [&] { return core::Recommender::LoadSnapshot(path, load); },
        &restore_ms, &restore, report);
    if (!restored.ok()) return 1;
    const core::Recommender& engine = **restored;
    bytes_mapped = engine.snapshot_bytes_mapped();
    double query_total = 0.0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      core::QueryTiming timing;
      const auto start = Clock::now();
      StatusOr<std::vector<core::ScoredVideo>> result =
          Status::Internal("not run");
      {
        Span span("core.recommend_by_id", static_cast<uint32_t>(qi + 1));
        result = engine.RecommendById(queries[qi], kTopK, &timing);
      }
      const double ms = MillisSince(start);
      query_total += ms;
      best_query.Add(qi, ms);
      latencies.push_back(ms);
      if (qi == 0) first_query_ms = ms;
      report->Op(result.ok());
      report->Check(result.ok() && SameResults(*result, reference[qi].second),
                    "restored engine differs from the built engine on query " +
                        std::to_string(queries[qi]));
      if (traced) {
        traced_sum += timing;
        ++traced_queries;
      }
    }
    query_ms.push_back(query_total / static_cast<double>(queries.size()));
    round_ms.push_back(restore + query_total);
    (traced ? traced_round_ms : untraced_round_ms)
        .push_back(restore + query_total);
  }
  tracer.set_enabled(args.trace);

  // A round at its best: every restore and every query at its fastest.
  e2e.restore_ms = Quantile(restore_ms, kRoundQuantile);
  e2e.query_ms = best_query.Mean();
  e2e.round_ms = kRestoresPerRound * e2e.restore_ms + best_query.Sum();
  LogRounds("csf_query", "query_ms", query_ms);
  LogRounds("csf_query", "restore_ms", restore_ms);
  LogRounds("csf_query", "round_ms", round_ms);
  std::fprintf(stderr,
               "csf_query: %zu rounds, query %.3f ms, restore %.3f ms, "
               "round %.1f ms, setup %.2f s, AR@10 %.4f\n",
               round_ms.size(), e2e.query_ms, e2e.restore_ms, e2e.round_ms,
               e2e.setup_s, e2e.rating_at_10);

  if (args.trace && traced_queries > 0) {
    const double nq = static_cast<double>(traced_queries);
    auto per_query = [nq](size_t count) {
      return Layer{static_cast<double>(count) / nq, "count"};
    };
    layers["core.social_ms"] = {traced_sum.social_ms / nq, "ms"};
    layers["index.lsb_probe_ms"] = {traced_sum.content_ms / nq, "ms"};
    layers["core.refine_ms"] = {traced_sum.refine_ms / nq, "ms"};
    layers["core.candidates"] = per_query(traced_sum.candidates);
    layers["core.candidates_pruned"] =
        per_query(traced_sum.candidates_pruned);
    layers["signature.emd_calls"] = per_query(traced_sum.emd_calls);
    layers["signature.pairs_pruned"] = per_query(traced_sum.pairs_pruned);
    layers["signature.pool_bytes"] = {
        static_cast<double>(traced_sum.pool_bytes_streamed) / nq, "B"};
    layers["util.bound_batches"] = per_query(traced_sum.bound_batches);
    layers["social.jaccard_calls"] = per_query(traced_sum.jaccard_calls);
    layers["social.candidates_skipped"] =
        per_query(traced_sum.social_candidates_skipped);
    layers["io.bytes_mapped"] = {static_cast<double>(bytes_mapped), "B"};
    layers["io.first_query_ms"] = {first_query_ms, "ms"};
    AddTail(latencies, &layers);
    layers["trace.overhead_pct"] = {
        TraceOverheadPct(traced_round_ms, untraced_round_ms), "%"};
  }
  layers["mem.peak_rss_mb"] = {PeakRssMb(), "MB"};
  layers["mem.settled_rss_mb"] = {CurrentRssMb(), "MB"};
  EmitMetrics(args, e2e, layers, report);
  return 0;
}

}  // namespace vrec::csfbench
