// social_stream: social-only retrieval (SR with SAR-H) over about 600
// videos while the comment stream of months 13-16 arrives. Each month is
// split into ApplySocialUpdate batches with SR by-id queries after every
// batch and one RemoveVideo per month; each round restores the same
// starting engine from its snapshot and replays the same sequence.

#include <cstdio>
#include <filesystem>
#include <set>

#include "common.h"
#include "core/recommender.h"
#include "util/random.h"

namespace vrec::csfbench {
namespace {

constexpr int kVideos = 600;
constexpr int kBatchesPerMonth = 3;
constexpr int kQueriesPerBatch = 16;
constexpr int kTopK = 10;
constexpr int kMinRounds = 4;

using Comments = std::vector<std::pair<video::VideoId, social::UserId>>;

struct Batch {
  std::vector<social::SocialConnection> connections;
  Comments comments;
  std::vector<video::VideoId> queries;
  video::VideoId remove = -1;  // removed after the batch, -1 for none
};

template <typename T>
std::vector<T> Chunk(const std::vector<T>& all, int part, int parts) {
  const size_t begin = all.size() * static_cast<size_t>(part) /
                       static_cast<size_t>(parts);
  const size_t end = all.size() * static_cast<size_t>(part + 1) /
                     static_cast<size_t>(parts);
  return std::vector<T>(all.begin() + static_cast<ptrdiff_t>(begin),
                        all.begin() + static_cast<ptrdiff_t>(end));
}

/// The round's operation list: months 13-16 (indices 12-15) of the stream,
/// each cut into kBatchesPerMonth batches in stream order.
std::vector<Batch> MakeBatches(const datagen::Dataset& dataset,
                               uint64_t seed) {
  const size_t n = dataset.video_count();
  std::vector<video::VideoId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<video::VideoId>(i);
  Rng rng(Mix(seed ^ 0x52));
  rng.Shuffle(&ids);
  // The paper's query videos rate the stream's end state, so they stay.
  const auto paper = dataset.QueryVideoIds();
  std::stable_partition(ids.begin(), ids.end(), [&paper](video::VideoId id) {
    return std::find(paper.begin(), paper.end(), id) == paper.end();
  });
  const int months = dataset.options.community.months;
  const int first = dataset.options.source_months;
  // The first (months - first) shuffled ids are removed, one per month;
  // queries draw from the rest, so no query names a removed video.
  const size_t removals = static_cast<size_t>(months - first);
  std::vector<Batch> batches;
  for (int month = first; month < months; ++month) {
    const auto connections = dataset.ConnectionsForMonth(month);
    Comments comments;
    for (const datagen::Comment& c : dataset.community.CommentsInMonth(month)) {
      comments.push_back({c.video, c.user});
    }
    for (int part = 0; part < kBatchesPerMonth; ++part) {
      Batch batch;
      batch.connections = Chunk(connections, part, kBatchesPerMonth);
      batch.comments = Chunk(comments, part, kBatchesPerMonth);
      for (int q = 0; q < kQueriesPerBatch; ++q) {
        batch.queries.push_back(ids[removals + static_cast<size_t>(
                                                   rng.UniformInt(
                                                       0, static_cast<int64_t>(
                                                              n - removals) -
                                                              1))]);
      }
      if (part == kBatchesPerMonth - 1) {
        batch.remove = ids[static_cast<size_t>(month - first)];
      }
      batches.push_back(std::move(batch));
    }
  }
  return batches;
}

}  // namespace

int RunSocialStream(const Args& args, Report* report) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(args.trace);
  Layers layers;
  EndToEnd e2e;

  const datagen::Dataset dataset =
      datagen::GenerateDataset(InputOptions(kVideos, args.corpus_seed));
  const size_t n = dataset.video_count();
  const std::vector<Batch> batches = MakeBatches(dataset, args.seed);
  size_t stream_comments = 0;
  size_t stream_connections = 0;
  for (const Batch& b : batches) {
    stream_comments += b.comments.size();
    stream_connections += b.connections.size();
  }
  std::fprintf(stderr,
               "social_stream: %zu videos, %zu users, %zu batches with %zu "
               "connections and %zu comments\n",
               n, dataset.community.user_count, batches.size(),
               stream_connections, stream_comments);

  // ---- Set-up: the starting engine over the 12 source months, finalized
  // on every hardware thread (the engine's default), and its snapshot. ----
  core::RecommenderOptions options;
  options.use_content = false;  // SR: social relevance only, SAR-H
  options.num_threads = 0;
  core::Recommender built(options);
  const ScopedPath snapshot(args.out_dir + "/social_stream-" +
                            std::to_string(args.seed) + ".vsnp");
  const std::string& path = snapshot.path();
  if (!BuildAndSave(
          &built, dataset, [&] { return built.SaveSnapshot(path); }, {path},
          &layers, &e2e, report)) {
    return 1;
  }
  const int k_communities = built.num_communities();
  report->Check(k_communities == options.k_subcommunities,
                "starting engine has " + std::to_string(k_communities) +
                    " sub-communities, want " +
                    std::to_string(options.k_subcommunities));
  const auto descriptors = dataset.SourceDescriptors();

  // ---- Timed rounds. ----
  core::SnapshotLoadOptions load;
  load.use_mmap = true;
  load.num_threads = 1;
  std::vector<double> round_ms, query_ms, restore_ms, update_ms;
  BestTimes best_update, best_query, best_remove;
  std::vector<double> traced_round_ms, untraced_round_ms, latencies;
  std::vector<std::pair<video::VideoId, std::vector<core::ScoredVideo>>>
      first_round;
  core::QueryTiming traced_sum;
  size_t traced_queries = 0;
  social::MaintenanceStats stream_stats;
  double stream_update_ms = 0.0;
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
    core::Recommender& engine = **restored;
    const size_t bytes_mapped = engine.snapshot_bytes_mapped();

    // The benchmark's own model of every live video's descriptor.
    std::vector<social::SocialDescriptor> model = descriptors;
    std::set<video::VideoId> removed;
    double round_total = restore;
    double query_total = 0.0;
    double update_total = 0.0;
    double remove_total = 0.0;
    size_t query_index = 0;
    size_t query_position = 0;
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      const Batch& batch = batches[bi];
      const auto update_start = Clock::now();
      StatusOr<social::MaintenanceStats> stats =
          Status::Internal("not run");
      {
        Span span("core.apply_social_update");
        stats = engine.ApplySocialUpdate(batch.connections, batch.comments);
      }
      const double ms = MillisSince(update_start);
      update_total += ms;
      best_update.Add(bi, ms);
      report->Op(stats.ok());
      if (round == 0 && stats.ok()) {
        stream_stats.merges += stats->merges;
        stream_stats.splits += stats->splits;
        stream_stats.dictionary_updates += stats->dictionary_updates;
        stream_update_ms += ms;
      }

      for (const auto& [video, user] : batch.comments) {
        if (!removed.count(video)) model[static_cast<size_t>(video)].Add(user);
      }
      size_t live_entries = 0;
      bool descriptors_match = true;
      for (size_t v = 0; v < n; ++v) {
        const auto id = static_cast<video::VideoId>(v);
        const social::SocialDescriptor* d = engine.DescriptorOf(id);
        if (removed.count(id)) {
          descriptors_match &= d == nullptr;
          continue;
        }
        descriptors_match &= d != nullptr && *d == model[v];
        live_entries += model[v].size();
      }
      report->Check(descriptors_match,
                    "DescriptorOf differs from source descriptors + "
                    "applied comments");
      report->Check(engine.user_video_entries() == live_entries,
                    "user_video_entries() " +
                        std::to_string(engine.user_video_entries()) +
                        " != sum of live descriptor sizes " +
                        std::to_string(live_entries));
      report->Check(engine.num_communities() == k_communities,
                    "num_communities() is " +
                        std::to_string(engine.num_communities()) +
                        " after a batch, want " +
                        std::to_string(k_communities));

      for (video::VideoId q : batch.queries) {
        core::QueryTiming timing;
        const auto start = Clock::now();
        StatusOr<std::vector<core::ScoredVideo>> result =
            Status::Internal("not run");
        {
          Span span("core.recommend_by_id",
                    static_cast<uint32_t>(query_index + 1));
          result = engine.RecommendById(q, kTopK, &timing);
        }
        const double qms = MillisSince(start);
        query_total += qms;
        best_query.Add(query_position++, qms);
        latencies.push_back(qms);
        report->Op(result.ok());
        if (!result.ok()) continue;
        if (traced) {
          traced_sum += timing;
          ++traced_queries;
        }
        CheckRanking(report, q, *result, kTopK, "social_stream");
        bool sr_scores = true;
        bool none_removed = true;
        for (const core::ScoredVideo& r : *result) {
          sr_scores &= r.score == r.social;
          none_removed &= !removed.count(r.id);
        }
        report->Check(sr_scores, "SR score differs from its social term");
        report->Check(none_removed, "a removed video came back for query " +
                                        std::to_string(q));
        if (round == 0) {
          first_round.push_back({q, *result});
        } else {
          report->Check(SameResults(*result, first_round[query_index].second),
                        "round " + std::to_string(round) +
                            " answers differently from round 0");
        }
        ++query_index;
      }

      if (batch.remove >= 0) {
        const auto remove_start = Clock::now();
        Status s;
        {
          Span span("core.remove_video");
          s = engine.RemoveVideo(batch.remove);
        }
        const double rms = MillisSince(remove_start);
        remove_total += rms;
        best_remove.Add(removed.size(), rms);
        report->Op(s.ok());
        removed.insert(batch.remove);
      }
    }
    round_total += update_total + query_total + remove_total;
    layers["io.bytes_mapped"] = {static_cast<double>(bytes_mapped), "B"};
    if (round == 0) {
      // Quality at the end of the stream: SR over the paper's queries.
      e2e.rating_at_10 = PaperRating(engine, dataset, report);
    }
    update_ms.push_back(update_total / static_cast<double>(batches.size()));
    query_ms.push_back(query_total / static_cast<double>(query_index));
    round_ms.push_back(round_total);
    (traced ? traced_round_ms : untraced_round_ms).push_back(round_total);
  }
  tracer.set_enabled(args.trace);

  // A round at its best: every restore, update, query and removal at its
  // fastest.
  e2e.restore_ms = Quantile(restore_ms, kRoundQuantile);
  e2e.query_ms = best_query.Mean();
  e2e.round_ms = kRestoresPerRound * e2e.restore_ms + best_update.Sum() +
                 best_query.Sum() + best_remove.Sum();
  LogRounds("social_stream", "query_ms", query_ms);
  LogRounds("social_stream", "update_ms", update_ms);
  LogRounds("social_stream", "restore_ms", restore_ms);
  LogRounds("social_stream", "round_ms", round_ms);
  std::fprintf(stderr,
               "social_stream: %zu rounds, SR query %.3f ms, update %.2f ms "
               "per batch, restore %.3f ms, round %.1f ms, setup %.2f s, "
               "splits %zu per stream, AR@10 %.4f\n",
               round_ms.size(), e2e.query_ms,
               best_update.Mean(), e2e.restore_ms,
               e2e.round_ms, e2e.setup_s, stream_stats.splits,
               e2e.rating_at_10);

  if (args.trace) {
    const double nb = static_cast<double>(batches.size());
    auto per_batch = [nb](size_t count) {
      return Layer{static_cast<double>(count) / nb, "count"};
    };
    layers["core.update_ms"] = {best_update.Mean(), "ms"};
    layers["core.remove_ms"] = {best_remove.Mean(), "ms"};
    layers["social.splits"] = per_batch(stream_stats.splits);
    layers["social.merges"] = per_batch(stream_stats.merges);
    layers["social.dictionary_updates"] =
        per_batch(stream_stats.dictionary_updates);
    if (stream_stats.splits > 0) {
      // Upper bound: the whole update time charged to the splits.
      layers["social.ms_per_split"] = {
          stream_update_ms / static_cast<double>(stream_stats.splits), "ms"};
    }
    if (traced_queries > 0) {
      const double nq = static_cast<double>(traced_queries);
      auto per_query = [nq](size_t count) {
        return Layer{static_cast<double>(count) / nq, "count"};
      };
      layers["core.social_ms"] = {traced_sum.social_ms / nq, "ms"};
      layers["core.candidates"] = per_query(traced_sum.candidates);
      layers["social.jaccard_calls"] = per_query(traced_sum.jaccard_calls);
      layers["social.candidates_skipped"] =
          per_query(traced_sum.social_candidates_skipped);
    }
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
