#ifndef VREC_CORE_ENGINE_H_
#define VREC_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "signature/cuboid_signature.h"
#include "social/descriptor.h"
#include "util/status.h"
#include "video/video.h"

namespace vrec::core {

/// One recommendation with its score decomposition.
struct ScoredVideo {
  video::VideoId id = -1;
  double score = 0.0;    // FJ (Equation 9)
  double content = 0.0;  // kJ / DTW-sim / ERP-sim component
  double social = 0.0;   // sJ or its SAR approximation
};

/// Wall-clock breakdown of one query (Figure 12 instrumentation).
struct QueryTiming {
  double social_ms = 0.0;   // descriptor vectorization + inverted file
  double content_ms = 0.0;  // LSB probing
  double refine_ms = 0.0;   // FJ computation over the candidate pool
  double total_ms = 0.0;
  /// Refinement pool size after candidate admission + padding. With the
  /// LSB index this never exceeds max(max_candidates, k + 1); exhaustive
  /// content modes (DTW/ERP or use_lsb_index=false) scan the live corpus.
  size_t candidates = 0;
  /// Content work counters (kKappaJ content only; all 0 for DTW/ERP).
  size_t emd_calls = 0;          // exact EMD kernel evaluations
  size_t pairs_pruned = 0;       // signature pairs skipped by the EMD bound
  size_t candidates_pruned = 0;  // pool entries skipped by the FJ bound
  /// Social work counters.
  /// kExact id merge-intersections actually executed (SAR scores come
  /// from the posting walk's Σmin table and are not counted).
  size_t jaccard_calls = 0;
  /// SAR posting-driven scoring: live records sharing no sub-community
  /// with the query — never touched by the inverted-file walk, so they
  /// were scored 0 without any per-record work.
  size_t social_candidates_skipped = 0;
  /// kExact id path: merge-intersections skipped because the cardinality
  /// upper bound proved the candidate dominated (by the running candidate
  /// heap or the refinement's k-th best bar).
  size_t exact_social_pruned = 0;
  /// Data-layout observability.
  /// Bytes of pooled signature/histogram data handed to scoring kernels
  /// through pool views this query. Nonzero whenever the refinement
  /// read at least one pooled candidate.
  size_t pool_bytes_streamed = 0;
  /// Batched bound-kernel invocations (one per refinement candidate bound
  /// matrix; one per kExact candidate-stage sweep).
  size_t bound_batches = 0;

  /// Field-wise accumulation — THE one place that sums timings. Aggregators
  /// (the server's stats totals, the sharded router's merge, bench
  /// reducers) must use this instead of picking fields by hand, so a
  /// counter added here can never again be silently dropped from
  /// downstream totals.
  QueryTiming& operator+=(const QueryTiming& other) {
    social_ms += other.social_ms;
    content_ms += other.content_ms;
    refine_ms += other.refine_ms;
    total_ms += other.total_ms;
    candidates += other.candidates;
    emd_calls += other.emd_calls;
    pairs_pruned += other.pairs_pruned;
    candidates_pruned += other.candidates_pruned;
    jaccard_calls += other.jaccard_calls;
    social_candidates_skipped += other.social_candidates_skipped;
    exact_social_pruned += other.exact_social_pruned;
    pool_bytes_streamed += other.pool_bytes_streamed;
    bound_batches += other.bound_batches;
    return *this;
  }
};

/// One query of a RecommendBatch call.
struct BatchQuery {
  signature::SignatureSeries series;
  social::SocialDescriptor descriptor;
  /// Dropped from the results when >= 0 (e.g. the query video itself).
  video::VideoId exclude = -1;
  /// Per-query result count; <= 0 falls back to the call-level `k`. Lets a
  /// serving batch mix requests that asked for different top-K sizes.
  int k = -1;
};

/// Per-query outcome of a RecommendBatch call; `results` is meaningful only
/// when `status.ok()`. Timing is returned by value so concurrent queries
/// never share instrumentation state.
struct BatchResult {
  Status status;
  std::vector<ScoredVideo> results;
  QueryTiming timing;
};

/// The serving layer's view of a query backend. Both the single-box
/// Recommender and the scatter-gather shard::ShardedRecommender implement
/// it, so the RecommendServer / MicroBatcher pipeline is engine-agnostic.
///
/// Implementations share the Recommender's concurrency contract: queries
/// (RecommendBatch / ResolveById) are lock-free readers and may run
/// concurrently with each other, but the caller serializes mutation
/// (Finalize / RemoveVideo / social updates) against them.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// True once the engine's derived structures are built and it can answer
  /// queries.
  virtual bool finalized() const = 0;

  /// Monotone counter bumped whenever query results may change. External
  /// result caches stamp entries with the generation they were computed
  /// under and treat a mismatch on lookup as an invalidation.
  virtual uint64_t generation() const = 0;

  /// Answers a batch of queries; results are positionally aligned with
  /// `queries` and per-query failures are reported in BatchResult::status
  /// without aborting the batch. `k` is the fallback result count for
  /// queries that leave BatchQuery::k unset.
  virtual std::vector<BatchResult> RecommendBatch(
      const std::vector<BatchQuery>& queries, int k) const = 0;

  /// Resolves an ingested video id into the query that re-ranks its
  /// neighborhood: the video's own series + descriptor with the video
  /// itself excluded. kNotFound for unknown (or removed) ids. This is what
  /// lets a by-id front end run against an engine whose records live
  /// elsewhere (e.g. on a remote shard).
  [[nodiscard]]
  virtual StatusOr<BatchQuery> ResolveById(video::VideoId id) const = 0;
};

}  // namespace vrec::core

#endif  // VREC_CORE_ENGINE_H_
