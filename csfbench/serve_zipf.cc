// serve_zipf: a loopback RecommendServer configured the way
// `vrec_cli serve --shards 2` configures it (result cache 1024, max_batch 16,
// max_delay_us 1000) in front of an in-process 2-shard fleet. Three closed-loop client connections send seeded by-id requests
// with Zipf-skewed popularity. Each round restores the fleet from its
// snapshots, starts a fresh server (empty cache) and replays the same
// request lists.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <list>
#include <map>
#include <thread>
#include <unordered_map>

#include "client/client.h"
#include "common.h"
#include "core/recommender.h"
#include "server/server.h"
#include "server/wire.h"
#include "shard/sharded_recommender.h"
#include "util/random.h"

namespace vrec::csfbench {
namespace {

constexpr int kVideos = 1200;
constexpr int kClients = 3;
constexpr int kRequestsPerClient = 300;
constexpr double kZipfSkew = 1.0;
constexpr int kTopK = 10;
constexpr int kMinRounds = 4;
constexpr size_t kCacheCapacity = 1024;

struct Request {
  video::VideoId video = -1;
  double send_ms = 0.0;  // since the round's start
  double recv_ms = 0.0;
  bool ok = false;
  server::QueryResponse response;
};

bool SameTiming(const core::QueryTiming& a, const core::QueryTiming& b) {
  return std::memcmp(&a.social_ms, &b.social_ms, sizeof(double)) == 0 &&
         std::memcmp(&a.content_ms, &b.content_ms, sizeof(double)) == 0 &&
         std::memcmp(&a.refine_ms, &b.refine_ms, sizeof(double)) == 0 &&
         std::memcmp(&a.total_ms, &b.total_ms, sizeof(double)) == 0;
}

/// Marks which requests the server answered from its cache. A hit replays
/// the exact response frame of an earlier miss, QueryTiming included, while
/// every miss carries the timing of its own computation; so among the
/// responses for one id that share a timing, the earliest sent is the miss
/// and the rest are hits.
std::vector<bool> ClassifyHits(const std::vector<const Request*>& order) {
  std::vector<bool> hit(order.size(), false);
  std::unordered_map<video::VideoId, std::vector<size_t>> misses_of;
  for (size_t i = 0; i < order.size(); ++i) {
    auto& misses = misses_of[order[i]->video];
    for (size_t m : misses) {
      if (SameTiming(order[m]->response.timing, order[i]->response.timing)) {
        hit[i] = true;
        break;
      }
    }
    if (!hit[i]) misses.push_back(i);
  }
  return hit;
}

/// The benchmark's own LRU model of the server's result cache: a lookup at
/// each request's send time, an insert at each miss's receive time. Returns
/// the hits it predicts; `in_flight` receives the number of requests sent
/// while a request for the same id was outstanding, where the server's
/// insert and another connection's lookup may be ordered either way.
size_t ModelHits(const std::vector<const Request*>& order,
                 const std::vector<bool>& hit, size_t* in_flight) {
  struct Event {
    double at_ms;
    int kind;  // 0 insert, 1 lookup: inserts first on equal times
    size_t request;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < order.size(); ++i) {
    events.push_back({order[i]->send_ms, 1, i});
    if (!hit[i]) events.push_back({order[i]->recv_ms, 0, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
    return a.kind < b.kind;
  });
  std::list<video::VideoId> lru;  // front = most recent
  std::unordered_map<video::VideoId, std::list<video::VideoId>::iterator>
      where;
  std::unordered_map<video::VideoId, int> outstanding;
  size_t hits = 0;
  *in_flight = 0;
  auto touch = [&](video::VideoId id) {
    lru.erase(where[id]);
    lru.push_front(id);
    where[id] = lru.begin();
  };
  for (const Event& e : events) {
    const video::VideoId id = order[e.request]->video;
    if (e.kind == 1) {
      if (outstanding[id] > 0) ++*in_flight;
      if (where.count(id)) {
        ++hits;
        touch(id);
      } else {
        ++outstanding[id];
      }
    } else {
      --outstanding[id];
      if (where.count(id)) {
        touch(id);
        continue;
      }
      lru.push_front(id);
      where[id] = lru.begin();
      if (lru.size() > kCacheCapacity) {
        where.erase(lru.back());
        lru.pop_back();
      }
    }
  }
  return hits;
}

}  // namespace

int RunServeZipf(const Args& args, Report* report) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(args.trace);
  Layers layers;
  EndToEnd e2e;

  const datagen::Dataset dataset =
      datagen::GenerateDataset(InputOptions(kVideos, args.corpus_seed));
  const size_t n = dataset.video_count();

  // Zipf popularity over a seeded permutation of the ids, one request list
  // per client connection.
  Rng rng(Mix(args.seed ^ 0x53));
  std::vector<video::VideoId> by_rank(n);
  for (size_t i = 0; i < n; ++i) by_rank[i] = static_cast<video::VideoId>(i);
  rng.Shuffle(&by_rank);
  std::vector<std::vector<video::VideoId>> lists(kClients);
  std::map<video::VideoId, std::vector<core::ScoredVideo>> direct;
  for (auto& list : lists) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const auto rank = static_cast<size_t>(
          rng.Zipf(static_cast<int64_t>(n), kZipfSkew) - 1);
      list.push_back(by_rank[rank]);
      direct[by_rank[rank]];
    }
  }
  std::fprintf(stderr,
               "serve_zipf: %zu videos, %d connections x %d requests, %zu "
               "distinct ids\n",
               n, kClients, kRequestsPerClient, direct.size());

  // ---- Set-up: the 2-shard fleet, both shards finalized at once with
  // half the hardware threads each, and its snapshot set. ----
  core::RecommenderOptions options;
  shard::ShardOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.threads_per_shard =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) /
                      shard_options.num_shards);
  shard::ShardedRecommender built(shard_options, options);
  const ScopedPath snapshots(args.out_dir + "/serve_zipf-" +
                             std::to_string(args.seed));
  const std::string& dir = snapshots.path();
  std::vector<std::string> files;
  for (int s = 0; s < shard_options.num_shards; ++s) {
    files.push_back(dir + "/shard-" + std::to_string(s) + ".vsnp");
  }
  if (!BuildAndSave(
          &built, dataset, [&] { return built.SaveSnapshots(dir); }, files,
          &layers, &e2e, report)) {
    return 1;
  }

  // ---- The fleet's direct answers: the reference for every response. ----
  for (auto& [id, answer] : direct) {
    auto r = built.RecommendById(id, kTopK);
    report->Check(r.ok(), "fleet query " + std::to_string(id) + " failed");
    if (!r.ok()) continue;
    answer = *r;
    CheckRanking(report, id, answer, kTopK, "serve_zipf fleet");
  }
  e2e.rating_at_10 = PaperRating(built, dataset, report);

  if (args.trace) {
    // Fleet RecommendBatch on the miss queries, without the server.
    std::vector<core::BatchQuery> queries;
    for (const auto& [id, answer] : direct) {
      auto q = built.ResolveById(id);
      if (q.ok()) queries.push_back(*q);
    }
    const auto fleet_start = Clock::now();
    for (const core::BatchQuery& q : queries) {
      Span span("shard.recommend_batch");
      const auto result = built.RecommendBatch({q}, kTopK);
      report->Check(result.size() == 1 && result[0].status.ok(),
                    "fleet RecommendBatch failed");
    }
    layers["shard.fleet_ms"] = {
        MillisSince(fleet_start) / static_cast<double>(queries.size()), "ms"};

    // The public wire codec on the workload's responses.
    std::vector<std::vector<uint8_t>> encoded;
    size_t bytes = 0;
    const auto encode_start = Clock::now();
    for (const auto& [id, answer] : direct) {
      server::QueryResponse response;
      response.results = answer;
      encoded.push_back(server::EncodeQueryResponse(response));
      bytes += encoded.back().size();
    }
    layers["server.encode_us"] = {
        MillisSince(encode_start) * 1e3 / static_cast<double>(direct.size()),
        "us"};
    layers["server.response_bytes"] = {
        static_cast<double>(bytes) / static_cast<double>(direct.size()), "B"};
    const auto decode_start = Clock::now();
    auto answer = direct.begin();
    for (const auto& frame : encoded) {
      const auto decoded = server::DecodeQueryResponse(frame);
      report->Check(decoded.ok() && SameResults(decoded->results,
                                                (answer++)->second),
                    "wire codec does not round-trip a response");
    }
    layers["server.decode_us"] = {
        MillisSince(decode_start) * 1e3 / static_cast<double>(direct.size()),
        "us"};
  }

  // ---- Timed rounds, served with one engine thread per shard. ----
  server::ServerOptions server_options;
  server_options.result_cache_capacity = kCacheCapacity;
  server_options.batcher.max_batch = 16;
  server_options.batcher.max_delay_us = 1000;
  core::SnapshotLoadOptions load;
  load.use_mmap = true;
  load.num_threads = 1;
  std::vector<double> round_ms, serve_ms, miss_ms, hit_ms, qps, restore_ms;
  std::vector<double> traced_round_ms, untraced_round_ms, latencies;
  server::ServerStats first_stats;
  const auto rounds_start = Clock::now();
  for (int round = 0;
       round < kMinRounds || SecondsSince(rounds_start) < args.seconds;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    double restore = 0.0;
    auto fleet = RestoreRepeatedly(
        "shard.load_snapshots",
        [&] {
          return shard::ShardedRecommender::LoadSnapshots(dir, shard_options,
                                                          load);
        },
        &restore_ms, &restore, report);
    if (!fleet.ok()) return 1;

    double bytes_mapped = 0.0;
    for (size_t s = 0; s < (*fleet)->num_shards(); ++s) {
      bytes_mapped +=
          static_cast<double>((*fleet)->shard(s)->snapshot_bytes_mapped());
    }
    layers["io.bytes_mapped"] = {bytes_mapped, "B"};

    server::RecommendServer srv(fleet->get(), server_options);
    if (const Status s = srv.Start(); !s.ok()) {
      return Fail(report, "server start", s);
    }
    std::vector<std::vector<Request>> done(kClients);
    std::vector<client::Client> clients(kClients);
    for (auto& c : clients) {
      if (const Status s = c.Connect("127.0.0.1", srv.port()); !s.ok()) {
        srv.Shutdown();
        return Fail(report, "connect", s);
      }
    }
    const auto serve_start = Clock::now();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t r = 0; r < lists[c].size(); ++r) {
            Request req;
            req.video = lists[c][r];
            server::QueryByIdRequest q;
            q.video = req.video;
            q.k = kTopK;
            req.send_ms = MillisSince(serve_start);
            Span span("client.query_by_id",
                      static_cast<uint32_t>(c * kRequestsPerClient + r + 1));
            auto response = clients[c].QueryById(q);
            req.recv_ms = MillisSince(serve_start);
            req.ok = response.ok() && response->status.ok();
            if (response.ok()) req.response = std::move(*response);
            done[c].push_back(std::move(req));
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double serve_wall = MillisSince(serve_start);
    const server::ServerStats stats = srv.stats();
    for (auto& c : clients) c.Close();
    srv.Shutdown();

    std::vector<const Request*> order;
    for (const auto& list : done) {
      for (const Request& r : list) {
        report->Op(r.ok);
        order.push_back(&r);
      }
    }
    std::sort(order.begin(), order.end(),
              [](const Request* a, const Request* b) {
                return a->send_ms < b->send_ms;
              });
    bool all_equal = true;
    for (const Request* r : order) {
      all_equal &= r->ok && SameResults(r->response.results, direct[r->video]);
    }
    report->Check(all_equal,
                  "a wire response differs from the fleet's direct answer");
    const std::vector<bool> hit = ClassifyHits(order);
    size_t hits = 0;
    double hit_total = 0.0;
    double miss_total = 0.0;
    for (size_t i = 0; i < order.size(); ++i) {
      const double ms = order[i]->recv_ms - order[i]->send_ms;
      latencies.push_back(ms);
      if (hit[i]) {
        ++hits;
        hit_total += ms;
      } else {
        miss_total += ms;
      }
    }
    report->Check(hits == stats.cache_hits,
                  "responses replayed from the cache (" +
                      std::to_string(hits) + ") != server cache_hits (" +
                      std::to_string(stats.cache_hits) + ")");
    size_t in_flight = 0;
    const size_t model = ModelHits(order, hit, &in_flight);
    const size_t gap =
        model > stats.cache_hits ? model - stats.cache_hits
                                 : stats.cache_hits - model;
    report->Check(gap <= in_flight,
                  "LRU model predicts " + std::to_string(model) +
                      " hits, server counted " +
                      std::to_string(stats.cache_hits) + " (" +
                      std::to_string(in_flight) + " requests in flight)");
    if (round == 0) first_stats = stats;

    const size_t misses = order.size() - hits;
    miss_ms.push_back(miss_total / static_cast<double>(misses));
    hit_ms.push_back(hits ? hit_total / static_cast<double>(hits) : 0.0);
    qps.push_back(static_cast<double>(order.size()) / serve_wall * 1e3);
    serve_ms.push_back(serve_wall);
    round_ms.push_back(restore + serve_wall);
    (traced ? traced_round_ms : untraced_round_ms)
        .push_back(restore + serve_wall);
  }
  tracer.set_enabled(args.trace);

  // A round with its restores and its serving part each at their fastest.
  e2e.query_ms = Quantile(miss_ms, kRoundQuantile);
  e2e.restore_ms = Quantile(restore_ms, kRoundQuantile);
  e2e.round_ms = kRestoresPerRound * e2e.restore_ms +
                 Quantile(serve_ms, kRoundQuantile);
  LogRounds("serve_zipf", "query_ms", miss_ms);
  LogRounds("serve_zipf", "hit_ms", hit_ms);
  LogRounds("serve_zipf", "restore_ms", restore_ms);
  LogRounds("serve_zipf", "round_ms", round_ms);
  std::fprintf(stderr,
               "serve_zipf: %zu rounds, miss %.3f ms, hit %.4f ms, %.0f qps, "
               "hits %llu of %d, restore %.3f ms, round %.1f ms, setup "
               "%.2f s, AR@10 %.4f\n",
               round_ms.size(), e2e.query_ms,
               Quantile(hit_ms, kRoundQuantile),
               Quantile(qps, 1.0 - kRoundQuantile),
               static_cast<unsigned long long>(first_stats.cache_hits),
               kClients * kRequestsPerClient, e2e.restore_ms, e2e.round_ms,
               e2e.setup_s, e2e.rating_at_10);

  if (args.trace) {
    auto count = [](size_t value) {
      return Layer{static_cast<double>(value), "count"};
    };
    layers["server.hit_ms"] = {Quantile(hit_ms, kRoundQuantile), "ms"};
    layers["server.qps"] = {Quantile(qps, 1.0 - kRoundQuantile), "1/s"};
    layers["server.cache_hits"] = count(first_stats.cache_hits);
    layers["server.cache_misses"] = count(first_stats.cache_misses);
    layers["server.cache_evictions"] = count(first_stats.cache_evictions);
    layers["server.batches_timer"] = count(first_stats.batches_timer);
    layers["server.batches_full"] = count(first_stats.batches_full);
    double batches = 0.0;
    double batched = 0.0;
    for (size_t i = 0; i < first_stats.batch_size_histogram.size(); ++i) {
      const auto n_batches =
          static_cast<double>(first_stats.batch_size_histogram[i]);
      batches += n_batches;
      batched += n_batches * static_cast<double>(i + 1);
    }
    if (batches > 0) {
      layers["server.mean_batch"] = {batched / batches, "count"};
    }
    if (first_stats.completed > 0) {
      const auto completed = static_cast<double>(first_stats.completed);
      const core::QueryTiming& t = first_stats.timing_totals;
      layers["shard.candidates"] = {
          static_cast<double>(t.candidates) / completed, "count"};
      layers["shard.emd_calls"] = {
          static_cast<double>(t.emd_calls) / completed, "count"};
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
