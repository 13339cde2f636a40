#ifndef VREC_CORE_RECOMMENDER_H_
#define VREC_CORE_RECOMMENDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "index/inverted_file.h"
#include "index/lsb_index.h"
#include "signature/cuboid_signature.h"
#include "signature/prepared_pool.h"
#include "signature/prepared_signature.h"
#include "signature/series_measures.h"
#include "social/descriptor.h"
#include "social/histogram_pool.h"
#include "social/sar.h"
#include "social/update_maintainer.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "video/segmenter.h"
#include "video/video.h"

namespace vrec::core {

/// How social relevance is computed — the paper's method family:
///   kNone     -> CR   (content relevance only, [35])
///   kExact    -> CSF  (content-social fusion with exact Jaccard, Eq. 5)
///   kSar      -> CSF-SAR   (sub-community approximation, Eq. 6)
///   kSarHash  -> CSF-SAR-H (SAR + chained hash dictionary)
/// Combine kExact/kSar/kSarHash with use_content=false for SR (social only).
enum class SocialMode { kNone, kExact, kSar, kSarHash };

/// Content series measure (Figure 7's comparison).
enum class ContentMeasure { kKappaJ, kDtw, kErp };

/// How content and social relevance are combined (Section 4.3). The paper
/// adopts the omega-weighted rule (Equation 9) and dismisses the two naive
/// search-fusion rules; all three are implemented so the choice can be
/// ablated.
enum class FusionRule {
  kWeighted,  // (1 - omega) * content + omega * social  (Equation 9)
  kAverage,   // (content + social) / 2
  kMax,       // max(content, social)
};

/// Configuration of a recommender instance.
struct RecommenderOptions {
  /// Fusion weight of social relevance (Equation 9); the paper's optimum.
  double omega = 0.7;
  FusionRule fusion_rule = FusionRule::kWeighted;
  /// Number of sub-communities k for SAR; the paper's optimum.
  int k_subcommunities = 60;
  SocialMode social_mode = SocialMode::kSarHash;
  /// false turns off the content term (the SR alternative).
  bool use_content = true;
  ContentMeasure content_measure = ContentMeasure::kKappaJ;
  /// Use the LSB index for content candidates (kKappaJ only); otherwise the
  /// refine stage scans all videos.
  bool use_lsb_index = true;
  int lsb_probes = 8;
  /// Refinement pool size (top social + content candidates kept).
  size_t max_candidates = 400;
  /// Worker threads for Finalize() and RecommendBatch(): 0 picks the
  /// hardware concurrency, 1 runs everything on the calling thread.
  int num_threads = 0;
  video::SegmenterOptions segmenter;
  signature::SignatureOptions signature;
  signature::KappaJOptions kappa;
  index::LsbIndex::Options lsb;
};

/// Validates a configuration; returned errors name the offending field.
[[nodiscard]]
Status ValidateOptions(const RecommenderOptions& options);

/// How LoadSnapshot maps the file (see docs/persistence.md).
struct SnapshotLoadOptions {
  /// Map the file and adopt the 64-byte-aligned flat pool sections in place
  /// (zero-copy; the engine keeps the mapping alive until a mutation
  /// materializes owned copies). Off streams the file through the heap.
  bool use_mmap = true;
  /// Worker threads for the loaded engine (-1 keeps the saved engine's
  /// setting; otherwise overrides RecommenderOptions::num_threads).
  int num_threads = -1;
};

/// Fleet coordinates pinned in every snapshot header so a sharded load can
/// reject mismatched or mixed snapshot sets. A single-box snapshot is the
/// degenerate 1-shard fleet with digest 0.
struct SnapshotFleetInfo {
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  /// FNV-1a digest of the global descriptor set all shards were finalized
  /// against (0 for single-box engines). Must agree across a fleet.
  uint32_t global_digest = 0;
};

// ScoredVideo, QueryTiming, BatchQuery, BatchResult and the QueryEngine
// interface live in core/engine.h (pulled in above) so the serving layer
// and the sharded router can depend on them without this full header.

/// The content-social video recommender (Sections 3-4).
///
/// Usage: construct, AddVideo()/AddVideoRecord() for the corpus, then
/// Finalize() once to build the social structures (UIG -> sub-communities ->
/// dictionary -> descriptor vectors -> inverted files) and the LSB content
/// index; then Recommend*() any number of times, interleaved with
/// ApplySocialUpdate() as new activity arrives.
class Recommender : public QueryEngine {
 public:
  explicit Recommender(RecommenderOptions options);

  /// Ingests a video: segments it, builds its cuboid signature series, and
  /// stores it with its social descriptor.
  [[nodiscard]]
  Status AddVideo(const video::Video& video,
                  const social::SocialDescriptor& descriptor);

  /// Ingests a pre-computed record (bulk loading path).
  [[nodiscard]]
  Status AddVideoRecord(video::VideoId id,
                        signature::SignatureSeries series,
                        social::SocialDescriptor descriptor);

  /// Builds all derived structures. `user_count` is the size of the user id
  /// space. Must be called exactly once, after ingestion.
  [[nodiscard]]
  Status Finalize(size_t user_count);

  /// Shard-aware Finalize: identical to Finalize(user_count) except that
  /// the SAR social substrate (user interest graph -> sub-communities ->
  /// dictionary -> maintainer) is built from `global_descriptors` instead
  /// of this instance's own records. A sharded router passes every
  /// corpus descriptor here so all shards derive the *same* community
  /// structure the single-box build would — the load-bearing half of the
  /// scatter-gather bit-identity guarantee (per-record vectorization,
  /// postings and content indexes still cover only this instance's
  /// records). The pointed-to descriptors only need to outlive the call.
  [[nodiscard]]
  Status Finalize(
      size_t user_count,
      const std::vector<const social::SocialDescriptor*>& global_descriptors);

  /// Top-K recommendations for an already-ingested video (self excluded).
  /// `timing` (optional) receives this query's wall-clock breakdown — the
  /// race-free replacement for the deprecated last_timing() accessor.
  [[nodiscard]]
  StatusOr<std::vector<ScoredVideo>> RecommendById(
      video::VideoId query, int k, QueryTiming* timing = nullptr) const;

  /// Top-K recommendations for an arbitrary query clip + social context.
  /// `exclude` (if >= 0) is dropped from results; `timing` (optional)
  /// receives this query's wall-clock breakdown.
  [[nodiscard]]
  StatusOr<std::vector<ScoredVideo>> Recommend(
      const signature::SignatureSeries& series,
      const social::SocialDescriptor& descriptor, int k,
      video::VideoId exclude = -1, QueryTiming* timing = nullptr) const;

  /// Figure 6's iterative form of the search: repeatedly widen the LSB
  /// probe depth ("pick the leaf entry having the *next* longest common
  /// prefix") and refine, until the top-K list is stable across a widening
  /// round (or the probe budget is exhausted). Costs more than Recommend()
  /// on easy queries but tracks the paper's any-time search procedure.
  [[nodiscard]]
  StatusOr<std::vector<ScoredVideo>> RecommendAdaptive(
      const signature::SignatureSeries& series,
      const social::SocialDescriptor& descriptor, int k,
      video::VideoId exclude = -1, int max_probes = 64,
      QueryTiming* timing = nullptr) const;

  /// Answers a batch of queries concurrently, fanning them across the
  /// worker pool (`pool` overrides the recommender's own; null with
  /// num_threads == 1 runs serially). Results are positionally aligned with
  /// `queries` and each carries its own QueryTiming; per-query failures are
  /// reported in BatchResult::status without aborting the batch. Queries
  /// are independent and the index is immutable during the call, so results
  /// are bit-identical to serial Recommend() calls. `k` is the fallback
  /// result count for queries that leave BatchQuery::k unset.
  std::vector<BatchResult> RecommendBatch(
      const std::vector<BatchQuery>& queries, int k,
      util::ThreadPool* pool) const;

  /// QueryEngine form: fans across the recommender's own pool.
  std::vector<BatchResult> RecommendBatch(
      const std::vector<BatchQuery>& queries, int k) const override;

  /// Batch form of RecommendById (each id excluded from its own results).
  std::vector<BatchResult> RecommendBatchByIds(
      const std::vector<video::VideoId>& ids, int k,
      util::ThreadPool* pool = nullptr) const;

  /// Removes a video from the database, its inverted-file postings and all
  /// future results. Stale LSB entries are filtered at query time.
  [[nodiscard]]
  Status RemoveVideo(video::VideoId id);

  /// Applies one period of social updates: new comments extend the video
  /// descriptors, new user-user connections drive Figure 5's sub-community
  /// maintenance, and the descriptor vectors / inverted files of affected
  /// videos are refreshed incrementally.
  [[nodiscard]]
  StatusOr<social::MaintenanceStats> ApplySocialUpdate(
      const std::vector<social::SocialConnection>& connections,
      const std::vector<std::pair<video::VideoId, social::UserId>>&
          new_comments);

  /// Number of live (non-removed) videos.
  size_t video_count() const {
    size_t n = 0;
    for (const auto& r : records_) n += r.active ? 1 : 0;
    return n;
  }
  size_t user_count() const { return user_count_; }
  bool finalized() const override { return finalized_; }
  /// Monotone counter bumped whenever query results may change: Finalize(),
  /// RemoveVideo(), and ApplySocialUpdate() each increment it on success.
  /// External result caches stamp entries with the generation they were
  /// computed under and treat a mismatch on lookup as an invalidation.
  uint64_t generation() const override {
    return generation_.load(std::memory_order_acquire);
  }
  const RecommenderOptions& options() const { return options_; }
  /// Total slot references held by the user -> videos index; shrinks when
  /// videos are removed (memory-growth monitoring under churn).
  size_t user_video_entries() const {
    size_t n = 0;
    for (const auto& [user, slots] : videos_of_user_) n += slots.size();
    return n;
  }
  /// Sub-community count currently live (SAR modes; 0 otherwise).
  int num_communities() const;
  /// Cross-structure audit, valid once Finalize() has run: the id index,
  /// tombstones and the user -> videos map agree; inverted-file postings
  /// mirror the live social vectors posting for posting; and the social
  /// maintainer, dictionary, chained hash table, and LSB forest each pass
  /// their own CheckInvariants(). Runs automatically (via VREC_DCHECK_OK)
  /// after Finalize, ApplySocialUpdate, and RemoveVideo in Debug and
  /// sanitizer builds.
  [[nodiscard]]
  Status CheckInvariants() const;
  /// Writes the complete finalized engine state to `path` as a single
  /// versioned, checksummed snapshot file (see docs/persistence.md). The
  /// write goes to `path + ".tmp"` first and is renamed into place, so a
  /// crash mid-save never clobbers an existing good snapshot. `fleet` pins
  /// this engine's shard coordinates in the header (defaulted for a
  /// single-box engine). Defined in src/io/snapshot.cc.
  [[nodiscard]]
  Status SaveSnapshot(const std::string& path,
                      const SnapshotFleetInfo& fleet = {}) const;

  /// Restores a serving-ready engine from a snapshot file without
  /// re-finalizing: every derived structure (prepared pools, histograms,
  /// LSB forest, inverted files, dictionary, maintainer) is adopted or
  /// rebuilt from the persisted bytes, and the loaded engine answers
  /// queries bit-for-bit identically to the engine that saved it —
  /// including its generation() stamp, so external result caches stay
  /// coherent. With `load.use_mmap` the large flat sections are adopted
  /// zero-copy from the mapping. `fleet` (optional) receives the header's
  /// shard coordinates. Defined in src/io/snapshot.cc.
  [[nodiscard]]
  static StatusOr<std::unique_ptr<Recommender>> LoadSnapshot(
      const std::string& path, const SnapshotLoadOptions& load = {},
      SnapshotFleetInfo* fleet = nullptr);

  /// Buffer form of LoadSnapshot (always copies — no mapping to adopt).
  /// Exercised by the corruption tests and the fuzz harness.
  [[nodiscard]]
  static StatusOr<std::unique_ptr<Recommender>> LoadSnapshotFromBuffer(
      const uint8_t* data, size_t size, const SnapshotLoadOptions& load = {},
      SnapshotFleetInfo* fleet = nullptr);

  /// Flat pool bytes adopted zero-copy from the snapshot mapping (0 for
  /// engines that were built, stream-loaded, or mutated since loading).
  size_t snapshot_bytes_mapped() const { return snapshot_bytes_mapped_; }

  /// The signature series of an ingested video (for query construction).
  const signature::SignatureSeries* SeriesOf(video::VideoId id) const;
  const social::SocialDescriptor* DescriptorOf(video::VideoId id) const;
  /// QueryEngine form of the two accessors above: the video's series +
  /// descriptor as a self-excluding query, copied out (so it can cross a
  /// process boundary). kNotFound for unknown or removed ids.
  [[nodiscard]]
  StatusOr<BatchQuery> ResolveById(video::VideoId id) const override;

 private:
  /// Shared snapshot-load body (src/io/snapshot.cc): parses the buffer,
  /// adopting the flat pool sections in place when `adopt_flats` (the
  /// mmap path, with `backing` pinning the mapping) or copying otherwise.
  [[nodiscard]]
  static StatusOr<std::unique_ptr<Recommender>> LoadSnapshotFromMemory(
      const uint8_t* data, size_t size, bool adopt_flats,
      std::shared_ptr<const void> backing, const SnapshotLoadOptions& load,
      SnapshotFleetInfo* fleet);

  /// Shared body of the two Finalize overloads; `global_descriptors` null
  /// means "use this instance's own records" (the single-box build).
  [[nodiscard]]
  Status FinalizeImpl(
      size_t user_count,
      const std::vector<const social::SocialDescriptor*>* global_descriptors);

  struct Record {
    video::VideoId id = -1;
    signature::SignatureSeries series;
    social::SocialDescriptor descriptor;
    /// Sparse SAR histogram (SAR modes): sorted (bin, weight) pairs plus
    /// the cached weight sum — O(nnz) per record instead of O(k).
    social::SparseHistogram social_vector;
    /// false after RemoveVideo (tombstone; slot indexes stay stable).
    bool active = true;
  };

  /// The query kernel. Fully re-entrant: all per-query state (including
  /// timing instrumentation, written through `timing` when non-null) lives
  /// on the caller's stack, and every structure it reads is immutable
  /// between Finalize()/ApplySocialUpdate() calls.
  [[nodiscard]]
  StatusOr<std::vector<ScoredVideo>> RecommendInternal(
      const signature::SignatureSeries& series,
      const social::SocialDescriptor& descriptor, int k,
      video::VideoId exclude, int probes, QueryTiming* timing) const;

  bool UsesSar() const {
    return options_.social_mode == SocialMode::kSar ||
           options_.social_mode == SocialMode::kSarHash;
  }
  /// True when queries score content through the prepared-signature pool
  /// (kKappaJ); DTW/ERP score the raw series per call.
  bool UsesKappaFastPath() const {
    return options_.use_content &&
           options_.content_measure == ContentMeasure::kKappaJ;
  }
  /// DTW / ERP similarity of the query and a record's raw series.
  double SequenceScore(const signature::SignatureSeries& query,
                       const Record& record) const;
  /// The fusion switch (Equation 9 and the ablation rules), shared by the
  /// refinement loop and its upper-bound cascade so both run the identical
  /// arithmetic. Monotone non-decreasing in `content` for every rule, which
  /// is what makes FuseScore(upper_bound, social) a valid FJ upper bound.
  double FuseScore(double content, double social) const;
  /// Per-query social state, built once in the social candidate stage and
  /// read by every candidate score.
  struct SocialQuery {
    const social::SocialDescriptor* descriptor = nullptr;  // kExact
    social::SparseHistogram sparse;                        // SAR modes
    /// video id -> Σ min(query mass, record mass) over shared bins, filled
    /// by the inverted-file walk of the SAR candidate stage.
    std::unordered_map<video::VideoId, double> min_overlap;
  };
  /// One candidate's social relevance under the active mode. kExact runs
  /// the id merge (bumping `timing`'s jaccard_calls); SAR modes divide the
  /// walk's Σmin by Σmax = |Q| + |V| − Σmin, reading the candidate's mass
  /// from the histogram pool at `slot`.
  double SocialScore(const SocialQuery& query, size_t slot,
                     const Record& record, QueryTiming* timing) const;
  static std::vector<std::string> NamesOf(
      const social::SocialDescriptor& descriptor);
  void RefreshVideoVector(size_t index);

  RecommenderOptions options_;
  bool finalized_ = false;
  /// See generation(). Release-published after every successful mutation so
  /// a reader that observes the new value also observes the new structures
  /// (given its own external read/write synchronization with the mutator).
  ///
  /// Ordering audit: this is the engine's only atomic, and it is
  /// deliberately NOT a mutex-guarded member — queries are lock-free by
  /// contract (the caller serializes mutation against queries; see the
  /// class comment), so the generation stamp is the one cross-thread
  /// signal and acquire/release is exactly the fence it needs. Do not
  /// weaken to relaxed: ResultCache keys trust that a reader observing
  /// generation N also observes the structures of generation N.
  std::atomic<uint64_t> generation_{0};
  size_t user_count_ = 0;
  std::vector<Record> records_;
  std::unordered_map<video::VideoId, size_t> index_of_;
  std::unordered_map<social::UserId, std::vector<size_t>> videos_of_user_;

  // Social structures (SAR modes).
  std::unique_ptr<social::UserDictionary> dictionary_;
  std::unique_ptr<social::SubCommunityMaintainer> maintainer_;
  index::InvertedFile inverted_file_;

  // Content index.
  std::unique_ptr<index::LsbIndex> lsb_;

  // Structure-of-arrays scoring pools, built at Finalize(): the prepared
  // signatures (kKappaJ) and the SAR histograms. Slot i mirrors
  // records_[i]; tombstoned/empty records hold empty slots.
  signature::PreparedPool prepared_pool_;
  social::HistogramPool histogram_pool_;
  /// Dense |descriptor| mirror (kExact): feeds the batched
  /// audience-cardinality bound sweep in the candidate stage. Zero for
  /// tombstones.
  std::vector<double> descriptor_sizes_;

  // Worker pool shared by Finalize() and RecommendBatch(); null when
  // options_.num_threads resolves to a single thread.
  std::unique_ptr<util::ThreadPool> pool_;

  /// Keeps the snapshot mapping alive while any pool borrows its flats
  /// (type-erased so this header does not depend on src/io). Reset when the
  /// pools materialize owned copies on first mutation.
  std::shared_ptr<const void> snapshot_backing_;
  size_t snapshot_bytes_mapped_ = 0;
};

}  // namespace vrec::core

#endif  // VREC_CORE_RECOMMENDER_H_
