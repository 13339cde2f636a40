#include "core/recommender.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <string>

#include "signature/emd.h"
#include "signature/sequence_distances.h"
#include "social/uig.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/stopwatch.h"
#include "video/segmenter.h"

namespace vrec::core {

Status ValidateOptions(const RecommenderOptions& options) {
  if (options.omega < 0.0 || options.omega > 1.0) {
    return Status::InvalidArgument("omega must be in [0, 1]");
  }
  if (options.k_subcommunities <= 0) {
    return Status::InvalidArgument("k_subcommunities must be positive");
  }
  if (options.lsb_probes <= 0) {
    return Status::InvalidArgument("lsb_probes must be positive");
  }
  if (options.max_candidates == 0) {
    return Status::InvalidArgument("max_candidates must be positive");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (!options.use_content && options.social_mode == SocialMode::kNone) {
    return Status::InvalidArgument(
        "at least one of content and social must be enabled");
  }
  if (options.signature.grid_dim <= 0) {
    return Status::InvalidArgument("signature.grid_dim must be positive");
  }
  if (options.segmenter.q < 1 || options.segmenter.keyframe_stride < 1) {
    return Status::InvalidArgument("segmenter parameters must be positive");
  }
  if (options.lsb.num_trees <= 0 || options.lsb.tree_fanout < 4) {
    return Status::InvalidArgument("invalid LSB index configuration");
  }
  if (options.lsb.lsh.num_hashes * options.lsb.lsh.bits_per_key > 64) {
    return Status::InvalidArgument(
        "LSH keys exceed 64 Z-order bits (num_hashes * bits_per_key)");
  }
  return Status::Ok();
}

Recommender::Recommender(RecommenderOptions options)
    : options_(std::move(options)) {
  const size_t threads =
      options_.num_threads > 0 ? static_cast<size_t>(options_.num_threads)
                               : util::ThreadPool::DefaultThreadCount();
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

Status Recommender::AddVideo(const video::Video& video,
                             const social::SocialDescriptor& descriptor) {
  const video::Segmenter segmenter(options_.segmenter);
  const signature::SignatureBuilder builder(options_.signature);
  StatusOr<signature::SignatureSeries> series =
      builder.BuildSeries(segmenter.Segment(video));
  if (!series.ok()) return series.status();
  return AddVideoRecord(video.id(), std::move(series).value(), descriptor);
}

Status Recommender::AddVideoRecord(video::VideoId id,
                                   signature::SignatureSeries series,
                                   social::SocialDescriptor descriptor) {
  if (finalized_) {
    return Status::FailedPrecondition("cannot add videos after Finalize");
  }
  if (index_of_.count(id) > 0) {
    return Status::InvalidArgument("duplicate video id");
  }
  Record record;
  record.id = id;
  record.series = std::move(series);
  record.descriptor = std::move(descriptor);
  index_of_[id] = records_.size();
  for (social::UserId u : record.descriptor.users()) {
    videos_of_user_[u].push_back(records_.size());
  }
  records_.push_back(std::move(record));
  return Status::Ok();
}

void Recommender::RefreshVideoVector(size_t index) {
  Record& record = records_[index];
  if (!record.active) return;
  // Remove the old postings, then re-vectorize and re-post.
  for (const auto& bin : record.social_vector.bins) {
    inverted_file_.RemoveVideoFromCommunity(bin.first, record.id);
  }
  util::Arena* arena = util::ThisThreadArena();
  arena->Reset();
  dictionary_->VectorizeSparse(record.descriptor, &record.social_vector,
                               arena);
  // The removal above guarantees this video has no posting left in any
  // community, so the duplicate-scanning Add would only re-verify what we
  // already know — append directly (keeps the rebuild linear).
  for (const auto& [c, w] : record.social_vector.bins) {
    inverted_file_.Append(c, record.id, w);
  }
  // Keep the pooled scoring mirror in sync (tombstoned old range, histogram
  // re-appended at the tail; the pool self-compacts under churn).
  histogram_pool_.Update(index, record.social_vector);
}

Status Recommender::Finalize(size_t user_count) {
  return FinalizeImpl(user_count, nullptr);
}

Status Recommender::Finalize(
    size_t user_count,
    const std::vector<const social::SocialDescriptor*>& global_descriptors) {
  return FinalizeImpl(user_count, &global_descriptors);
}

Status Recommender::FinalizeImpl(
    size_t user_count,
    const std::vector<const social::SocialDescriptor*>* global_descriptors) {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  if (const Status s = ValidateOptions(options_); !s.ok()) return s;
  user_count_ = user_count;

  if (UsesSar()) {
    // Views into the records' own descriptors — BuildUserInterestGraph
    // never copies a user list — accumulated in per-worker shards. A
    // sharded build substitutes the router's global descriptor list so
    // every shard derives the identical UIG -> sub-community -> dictionary
    // chain the single-box build would (the bit-identity precondition;
    // both graph construction and extraction are thread-count- and
    // order-deterministic, so shards may differ in thread budget).
    std::vector<const social::SocialDescriptor*> own_descriptors;
    if (global_descriptors == nullptr) {
      own_descriptors.reserve(records_.size());
      for (const Record& r : records_) {
        own_descriptors.push_back(&r.descriptor);
      }
    }
    const std::vector<const social::SocialDescriptor*>& descriptors =
        global_descriptors != nullptr ? *global_descriptors : own_descriptors;
    const graph::WeightedGraph uig =
        social::BuildUserInterestGraph(descriptors, user_count, pool_.get());
    // Users who never co-commented form singleton components; they would
    // satisfy Figure 3's component count without ever partitioning the
    // connected fan groups, so k is interpreted as the target number of
    // sub-communities *over and above* the isolated users.
    const auto [labels, components] = uig.ConnectedComponents();
    std::vector<size_t> component_size(static_cast<size_t>(components), 0);
    for (int l : labels) ++component_size[static_cast<size_t>(l)];
    size_t singletons = 0;
    for (size_t s : component_size) {
      if (s <= 1) ++singletons;
    }
    const int effective_k = static_cast<int>(
        std::min(uig.node_count(),
                 static_cast<size_t>(options_.k_subcommunities) + singletons));
    StatusOr<social::SubCommunityResult> extraction =
        social::ExtractSubCommunities(uig, effective_k);
    if (!extraction.ok()) return extraction.status();

    // SAR without the hash optimization resolves user names by scanning
    // the dictionary — the baseline Figure 12(a) measures SAR-H against.
    const social::DictionaryLookup lookup =
        options_.social_mode == SocialMode::kSarHash
            ? social::DictionaryLookup::kChainedHash
            : social::DictionaryLookup::kLinearScan;
    dictionary_ = std::make_unique<social::UserDictionary>(
        extraction->labels, extraction->num_communities, lookup);
    maintainer_ = std::make_unique<social::SubCommunityMaintainer>(
        uig, *extraction, options_.k_subcommunities, dictionary_.get());

    // Vectorization is independent per record (each task writes only its
    // own record's histogram), so it fans across the pool with each
    // worker's thread arena as scratch — the batch loop performs no
    // steady-state allocation. The inverted-file postings are appended
    // serially afterwards (shared map, cheap appends).
    util::ParallelFor(pool_.get(), records_.size(), [&](size_t i) {
      if (!records_[i].active) return;
      util::Arena* arena = util::ThisThreadArena();
      arena->Reset();
      dictionary_->VectorizeSparse(records_[i].descriptor,
                                   &records_[i].social_vector, arena);
    });
    for (const Record& r : records_) {
      if (!r.active) continue;
      for (const auto& [c, w] : r.social_vector.bins) {
        inverted_file_.Append(c, r.id, w);
      }
    }
    // Flatten the per-record histograms into the SoA scoring mirror.
    std::vector<const social::SparseHistogram*> histograms;
    histograms.reserve(records_.size());
    for (const Record& r : records_) {
      histograms.push_back(r.active ? &r.social_vector : nullptr);
    }
    histogram_pool_.Build(histograms);
  }

  if (UsesKappaFastPath()) {
    // Prepare every series once (value-sorted supports, prefix-summed
    // weights, cached centroids); independent per record, so it fans
    // across the pool. Built even in exhaustive mode (use_lsb_index =
    // false) — the refinement stage is where the prepared form pays off
    // most there. The staging vector feeds the LSB bulk build (which embeds
    // the keys during the call and retains no pointers) and is then
    // flattened into the SoA pool, the one prepared store every query-time
    // kernel reads views from.
    std::vector<signature::PreparedSeries> prepared(records_.size());
    util::ParallelFor(pool_.get(), records_.size(), [&](size_t i) {
      prepared[i] = signature::PrepareSeries(records_[i].series);
    });
    if (options_.use_lsb_index) {
      lsb_ = std::make_unique<index::LsbIndex>(options_.lsb);
      std::vector<std::pair<int64_t, const signature::PreparedSeries*>>
          series;
      series.reserve(records_.size());
      for (size_t i = 0; i < records_.size(); ++i) {
        series.emplace_back(records_[i].id, &prepared[i]);
      }
      lsb_->AddVideosBulkPrepared(series, pool_.get());
    }
    std::vector<const signature::PreparedSeries*> live;
    live.reserve(records_.size());
    for (size_t i = 0; i < records_.size(); ++i) {
      live.push_back(records_[i].active ? &prepared[i] : nullptr);
    }
    prepared_pool_.Build(live);
  }

  if (options_.social_mode == SocialMode::kExact) {
    // Dense |descriptor| mirror for the batched cardinality-bound sweep.
    descriptor_sizes_.resize(records_.size());
    for (size_t i = 0; i < records_.size(); ++i) {
      descriptor_sizes_[i] =
          records_[i].active
              ? static_cast<double>(records_[i].descriptor.size())
              : 0.0;
    }
  }

  finalized_ = true;
  generation_.fetch_add(1, std::memory_order_acq_rel);
  VREC_DCHECK_OK(CheckInvariants());
  return Status::Ok();
}

Status Recommender::CheckInvariants() const {
  if (!finalized_) {
    return Status::FailedPrecondition("Finalize() not called");
  }
  // Id index vs. records: every active record is indexed at its own slot,
  // tombstones are unindexed and carry no social vector.
  size_t active = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const auto it = index_of_.find(r.id);
    if (!r.active) {
      if (it != index_of_.end() && it->second == i) {
        return Status::Internal("tombstoned video " + std::to_string(r.id) +
                                " still indexed");
      }
      if (!r.social_vector.empty() || r.social_vector.sum != 0.0) {
        return Status::Internal("tombstoned video " + std::to_string(r.id) +
                                " retains a social vector");
      }
      if (prepared_pool_.slot_count() > i && !prepared_pool_.View(i).empty()) {
        return Status::Internal("tombstoned video " + std::to_string(r.id) +
                                " retains a pooled prepared series");
      }
      if (histogram_pool_.slot_count() > i &&
          !histogram_pool_.View(i).empty()) {
        return Status::Internal("tombstoned video " + std::to_string(r.id) +
                                " retains a pooled histogram");
      }
      if (!descriptor_sizes_.empty() && descriptor_sizes_[i] != 0.0) {
        return Status::Internal("tombstoned video " + std::to_string(r.id) +
                                " retains a descriptor-size mirror entry");
      }
      continue;
    }
    ++active;
    if (it == index_of_.end() || it->second != i) {
      return Status::Internal("video " + std::to_string(r.id) +
                              " not indexed at its slot");
    }
    // The pooled prepared series mirrors the raw series signature for
    // signature.
    if (UsesKappaFastPath()) {
      if (prepared_pool_.slot_count() != records_.size()) {
        return Status::Internal("prepared pool slot count off");
      }
      const signature::PreparedSeriesView view = prepared_pool_.View(i);
      if (view.count != r.series.size()) {
        return Status::Internal("pooled prepared series out of sync for "
                                "video " + std::to_string(r.id));
      }
      for (size_t s = 0; s < view.count; ++s) {
        if (view[s].len != r.series[s].size()) {
          return Status::Internal("pooled prepared signature " +
                                  std::to_string(s) + " corrupt for video " +
                                  std::to_string(r.id));
        }
      }
    }
  }
  if (index_of_.size() != active) {
    return Status::Internal("id index holds " +
                            std::to_string(index_of_.size()) +
                            " entries for " + std::to_string(active) +
                            " active videos");
  }
  // user -> videos map: slots valid, active, justified by the descriptor,
  // and listed exactly once.
  for (const auto& [user, slots] : videos_of_user_) {
    if (slots.empty()) {
      return Status::Internal("user " + std::to_string(user) +
                              " retains an empty slot list");
    }
    std::set<size_t> unique_slots;
    for (size_t s : slots) {
      if (s >= records_.size()) {
        return Status::Internal("user slot out of range");
      }
      if (!records_[s].active) {
        return Status::Internal("user " + std::to_string(user) +
                                " lists tombstoned slot " +
                                std::to_string(s));
      }
      if (!records_[s].descriptor.Contains(user)) {
        return Status::Internal("user " + std::to_string(user) +
                                " lists video " +
                                std::to_string(records_[s].id) +
                                " whose descriptor omits them");
      }
      if (!unique_slots.insert(s).second) {
        return Status::Internal("user " + std::to_string(user) +
                                " lists slot " + std::to_string(s) +
                                " twice");
      }
    }
  }
  for (size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].active) continue;
    for (social::UserId u : records_[i].descriptor.users()) {
      const auto it = videos_of_user_.find(u);
      if (it == videos_of_user_.end() ||
          std::find(it->second.begin(), it->second.end(), i) ==
              it->second.end()) {
        return Status::Internal("video " + std::to_string(records_[i].id) +
                                " missing from user " + std::to_string(u) +
                                "'s slot list");
      }
    }
  }
  // SoA scoring pools: structural self-audits, slot-per-record shape, and
  // (for the histogram mirror) bin-for-bin agreement with the records'
  // authoritative sparse vectors.
  if (UsesKappaFastPath()) {
    if (const Status s = prepared_pool_.CheckInvariants(); !s.ok()) return s;
  } else if (prepared_pool_.slot_count() != 0) {
    return Status::Internal("prepared pool populated outside kKappaJ");
  }
  if (UsesSar()) {
    if (const Status s = histogram_pool_.CheckInvariants(); !s.ok()) return s;
    if (histogram_pool_.slot_count() != records_.size()) {
      return Status::Internal("histogram pool slot count off");
    }
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (!r.active) continue;
      const social::SparseHistogramView view = histogram_pool_.View(i);
      bool mirrored = view.len == r.social_vector.nnz() &&
                      view.sum == r.social_vector.sum;
      for (size_t e = 0; mirrored && e < view.len; ++e) {
        mirrored = view.bins[e] == r.social_vector.bins[e].first &&
                   view.weights[e] == r.social_vector.bins[e].second;
      }
      if (!mirrored) {
        return Status::Internal("pooled histogram out of sync for video " +
                                std::to_string(r.id));
      }
    }
  } else if (histogram_pool_.slot_count() != 0) {
    return Status::Internal("histogram pool populated outside SAR modes");
  }
  if (options_.social_mode == SocialMode::kExact) {
    if (descriptor_sizes_.size() != records_.size()) {
      return Status::Internal("descriptor-size mirror length off");
    }
    for (size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].active &&
          descriptor_sizes_[i] !=
              static_cast<double>(records_[i].descriptor.size())) {
        return Status::Internal("descriptor-size mirror out of sync for "
                                "video " + std::to_string(records_[i].id));
      }
    }
  } else if (!descriptor_sizes_.empty()) {
    return Status::Internal(
        "descriptor-size mirror populated outside kExact");
  }
  // Social structures.
  if (UsesSar()) {
    if (dictionary_ == nullptr || maintainer_ == nullptr) {
      return Status::Internal("SAR mode without dictionary/maintainer");
    }
    if (const Status s = maintainer_->CheckInvariants(); !s.ok()) return s;
    if (const Status s = inverted_file_.CheckInvariants(); !s.ok()) return s;
    // Postings mirror the live social vectors exactly: every sparse bin has
    // its posting, and no posting lacks a vector entry. Each sparse
    // histogram also passes its own structural audit (sorted bins, positive
    // weights, consistent cached sum).
    size_t nonzero_entries = 0;
    size_t postings = 0;
    for (const Record& r : records_) {
      if (!r.active) continue;
      if (const Status s = social::CheckSparseHistogram(
              r.social_vector, maintainer_->label_space());
          !s.ok()) {
        return s;
      }
      for (const auto& [c, w] : r.social_vector.bins) {
        ++nonzero_entries;
        const auto& list = inverted_file_.Postings(c);
        const auto it = std::lower_bound(
            list.begin(), list.end(), r.id,
            [](const index::InvertedFile::Posting& p, video::VideoId id) {
              return p.video_id < id;
            });
        if (it == list.end() || it->video_id != r.id || it->weight != w) {
          return Status::Internal("posting mismatch for video " +
                                  std::to_string(r.id) + " in community " +
                                  std::to_string(c));
        }
      }
    }
    for (int c = 0; c < maintainer_->label_space(); ++c) {
      postings += inverted_file_.Postings(c).size();
    }
    if (postings != nonzero_entries) {
      return Status::Internal("inverted file holds " +
                              std::to_string(postings) + " postings for " +
                              std::to_string(nonzero_entries) +
                              " non-zero vector entries");
    }
  } else if (inverted_file_.community_count() != 0) {
    return Status::Internal("inverted file populated outside SAR modes");
  }
  // Content index: one entry per signature ever ingested (tombstoned videos
  // stay indexed by design and are filtered at query time).
  if (lsb_ != nullptr) {
    if (const Status s = lsb_->CheckInvariants(); !s.ok()) return s;
    size_t signatures = 0;
    for (const Record& r : records_) signatures += r.series.size();
    if (lsb_->indexed_signatures() != signatures) {
      return Status::Internal(
          "LSB index holds " + std::to_string(lsb_->indexed_signatures()) +
          " signatures, expected " + std::to_string(signatures));
    }
  }
  return Status::Ok();
}

int Recommender::num_communities() const {
  return maintainer_ ? maintainer_->num_communities() : 0;
}

const signature::SignatureSeries* Recommender::SeriesOf(
    video::VideoId id) const {
  const auto it = index_of_.find(id);
  return it == index_of_.end() ? nullptr : &records_[it->second].series;
}

const social::SocialDescriptor* Recommender::DescriptorOf(
    video::VideoId id) const {
  const auto it = index_of_.find(id);
  return it == index_of_.end() ? nullptr : &records_[it->second].descriptor;
}

StatusOr<BatchQuery> Recommender::ResolveById(video::VideoId id) const {
  const auto it = index_of_.find(id);
  if (it == index_of_.end()) return Status::NotFound("unknown video id");
  const Record& record = records_[it->second];
  BatchQuery query;
  query.series = record.series;
  query.descriptor = record.descriptor;
  query.exclude = id;
  return query;
}

double Recommender::SequenceScore(const signature::SignatureSeries& query,
                                  const Record& record) const {
  return options_.content_measure == ContentMeasure::kDtw
             ? signature::DtwSimilarity(query, record.series)
             : signature::ErpSimilarity(query, record.series);
}

double Recommender::FuseScore(double content, double social) const {
  if (!options_.use_content) return social;                       // SR
  if (options_.social_mode == SocialMode::kNone) return content;  // CR
  switch (options_.fusion_rule) {
    case FusionRule::kWeighted:  // Equation 9
      return (1.0 - options_.omega) * content + options_.omega * social;
    case FusionRule::kAverage:
      return 0.5 * (content + social);
    case FusionRule::kMax:
      return std::max(content, social);
  }
  return 0.0;
}

std::vector<std::string> Recommender::NamesOf(
    const social::SocialDescriptor& descriptor) {
  std::vector<std::string> names;
  names.reserve(descriptor.size());
  for (social::UserId u : descriptor.users()) {
    names.push_back(social::UserName(u));
  }
  return names;
}

double Recommender::SocialScore(const SocialQuery& query, size_t slot,
                                const Record& record,
                                QueryTiming* timing) const {
  switch (options_.social_mode) {
    case SocialMode::kNone:
      return 0.0;
    case SocialMode::kExact:
      // Merge-intersection over the two sorted id arrays (Equation 5).
      ++timing->jaccard_calls;
      return social::ExactJaccard(*query.descriptor, record.descriptor);
    case SocialMode::kSar:
    case SocialMode::kSarHash: {
      // Σmin was accumulated term-at-a-time during the inverted-file walk;
      // a missing entry means no shared sub-community, which Equation 6
      // scores 0 as well. The candidate's total mass is the pool's cached
      // per-slot sum, so Σmax = |Q| + |V| − Σmin.
      const auto it = query.min_overlap.find(record.id);
      if (it == query.min_overlap.end() || it->second <= 0.0) return 0.0;
      const double num = it->second;
      timing->pool_bytes_streamed += sizeof(double);
      const double den = query.sparse.sum + histogram_pool_.SumOf(slot) - num;
      return den > 0.0 ? num / den : 0.0;
    }
  }
  return 0.0;
}

StatusOr<std::vector<ScoredVideo>> Recommender::RecommendById(
    video::VideoId query, int k, QueryTiming* timing) const {
  const auto it = index_of_.find(query);
  if (it == index_of_.end()) return Status::NotFound("unknown video id");
  const Record& record = records_[it->second];
  return Recommend(record.series, record.descriptor, k, query, timing);
}

StatusOr<std::vector<ScoredVideo>> Recommender::Recommend(
    const signature::SignatureSeries& series,
    const social::SocialDescriptor& descriptor, int k, video::VideoId exclude,
    QueryTiming* timing_out) const {
  QueryTiming timing;
  StatusOr<std::vector<ScoredVideo>> result =
      RecommendInternal(series, descriptor, k, exclude, options_.lsb_probes,
                        &timing);
  if (result.ok() && timing_out != nullptr) *timing_out = timing;
  return result;
}

StatusOr<std::vector<ScoredVideo>> Recommender::RecommendAdaptive(
    const signature::SignatureSeries& series,
    const social::SocialDescriptor& descriptor, int k, video::VideoId exclude,
    int max_probes, QueryTiming* timing_out) const {
  std::vector<video::VideoId> previous_ids;
  StatusOr<std::vector<ScoredVideo>> best =
      Status::Internal("adaptive search did not run");
  QueryTiming timing;
  // Clamp the starting width into [1, max_probes] so at least one round
  // always runs, even when the caller's probe budget sits below the
  // configured lsb_probes.
  int probes = std::max(1, std::min(options_.lsb_probes, max_probes));
  for (;;) {
    best = RecommendInternal(series, descriptor, k, exclude, probes, &timing);
    if (!best.ok()) return best;
    std::vector<video::VideoId> ids;
    for (const auto& r : *best) ids.push_back(r.id);
    if (ids == previous_ids) break;  // widening found nothing new: stable
    previous_ids = std::move(ids);
    if (probes >= max_probes) break;  // budget exhausted
    probes = std::min(probes * 2, max_probes);
  }
  if (timing_out != nullptr) *timing_out = timing;
  return best;
}

std::vector<BatchResult> Recommender::RecommendBatch(
    const std::vector<BatchQuery>& queries, int k,
    util::ThreadPool* pool) const {
  std::vector<BatchResult> out(queries.size());
  util::ParallelFor(pool != nullptr ? pool : pool_.get(), queries.size(),
                    [&](size_t i) {
                      BatchResult& r = out[i];
                      const int effective_k =
                          queries[i].k > 0 ? queries[i].k : k;
                      StatusOr<std::vector<ScoredVideo>> result =
                          RecommendInternal(queries[i].series,
                                            queries[i].descriptor, effective_k,
                                            queries[i].exclude,
                                            options_.lsb_probes, &r.timing);
                      r.status = result.status();
                      if (result.ok()) r.results = std::move(result).value();
                    });
  return out;
}

std::vector<BatchResult> Recommender::RecommendBatch(
    const std::vector<BatchQuery>& queries, int k) const {
  return RecommendBatch(queries, k, nullptr);
}

std::vector<BatchResult> Recommender::RecommendBatchByIds(
    const std::vector<video::VideoId>& ids, int k,
    util::ThreadPool* pool) const {
  std::vector<BatchResult> out(ids.size());
  util::ParallelFor(
      pool != nullptr ? pool : pool_.get(), ids.size(), [&](size_t i) {
        BatchResult& r = out[i];
        const auto it = index_of_.find(ids[i]);
        if (it == index_of_.end()) {
          r.status = Status::NotFound("unknown video id");
          return;
        }
        const Record& record = records_[it->second];
        StatusOr<std::vector<ScoredVideo>> result =
            RecommendInternal(record.series, record.descriptor, k, ids[i],
                              options_.lsb_probes, &r.timing);
        r.status = result.status();
        if (result.ok()) r.results = std::move(result).value();
      });
  return out;
}

Status Recommender::RemoveVideo(video::VideoId id) {
  const auto it = index_of_.find(id);
  if (it == index_of_.end()) return Status::NotFound("unknown video id");
  const size_t slot = it->second;
  Record& record = records_[slot];
  record.active = false;
  for (const auto& bin : record.social_vector.bins) {
    inverted_file_.RemoveVideoFromCommunity(bin.first, id);
  }
  record.social_vector.clear();
  // Tombstones never score again (the raw series stays for the LSB
  // invariant audit, whose stale entries are query-time filtered). The SoA
  // pools tombstone the slot and self-compact once dead bytes dominate.
  if (prepared_pool_.slot_count() > slot) prepared_pool_.Release(slot);
  if (histogram_pool_.slot_count() > slot) histogram_pool_.Release(slot);
  if (!descriptor_sizes_.empty()) descriptor_sizes_[slot] = 0.0;
  // Purge the tombstoned slot from its users' video lists — otherwise every
  // later ApplySocialUpdate re-touches the dead record and the map grows
  // without bound under add/remove churn.
  for (social::UserId u : record.descriptor.users()) {
    const auto vit = videos_of_user_.find(u);
    if (vit == videos_of_user_.end()) continue;
    auto& slots = vit->second;
    slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
    if (slots.empty()) videos_of_user_.erase(vit);
  }
  index_of_.erase(it);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  VREC_DCHECK_OK(CheckInvariants());
  return Status::Ok();
}

StatusOr<std::vector<ScoredVideo>> Recommender::RecommendInternal(
    const signature::SignatureSeries& series,
    const social::SocialDescriptor& descriptor, int k,
    video::VideoId exclude, int probes, QueryTiming* timing_out) const {
  if (!finalized_) return Status::FailedPrecondition("Finalize() not called");
  if (k <= 0) return Status::InvalidArgument("k must be positive");

  Stopwatch total;
  QueryTiming timing;
  // Per-query scratch arena: one bump allocator per thread, reset at query
  // entry, backing every transient buffer below (KappaJ scratch, signature
  // views, bound matrices).
  util::Arena* const arena = util::ThisThreadArena();
  arena->Reset();
  std::set<size_t> pool;

  // --- Social candidate stage (Figure 6 lines 1-3). ---
  Stopwatch phase;
  SocialQuery social_query;
  social_query.descriptor = &descriptor;
  if (options_.social_mode == SocialMode::kExact) {
    // Id-keyed CSF: merge-intersections over the sorted user-id arrays,
    // visited against a running top-M heap (M = max_candidates) keyed by
    // (score desc, id asc). The cardinality upper bound
    // min(|D_Q|,|D_V|)/max(|D_Q|,|D_V|) skips a candidate's merge entirely
    // when even that best case could not displace the worst retained
    // candidate — exact, because IEEE division is monotone, so the computed
    // bound dominates the computed Jaccard (see docs/algorithms.md).
    struct SocialCand {
      double score;
      video::VideoId id;
      size_t slot;
    };
    auto cand_better = [](const SocialCand& a, const SocialCand& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    };
    // Min-heap: top() is the worst retained candidate.
    std::priority_queue<SocialCand, std::vector<SocialCand>,
                        decltype(cand_better)>
        heap(cand_better);
    const size_t cap = options_.max_candidates;
    // The cardinality bound is an elementwise min/max/divide, so one
    // batched sweep over the dense descriptor-size mirror fills every
    // record's bound up front (same casts, same IEEE division,
    // lane-selected zero guard as JaccardCardinalityBound).
    util::ArenaVector<double> bounds{util::ArenaAllocator<double>(arena)};
    bounds.resize(records_.size());
    util::simd::JaccardCardinalityBoundMany(
        static_cast<double>(descriptor.size()), descriptor_sizes_.data(),
        records_.size(), bounds.data());
    ++timing.bound_batches;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (!r.active) continue;
      const double bound = bounds[i];
      if (bound <= 0.0) continue;  // exact score is 0; only s > 0 is admitted
      if (heap.size() == cap && !cand_better({bound, r.id, i}, heap.top())) {
        ++timing.exact_social_pruned;
        continue;
      }
      ++timing.jaccard_calls;
      const double s = social::ExactJaccard(descriptor, r.descriptor);
      if (s <= 0.0) continue;
      if (heap.size() < cap) {
        heap.push({s, r.id, i});
      } else if (cand_better({s, r.id, i}, heap.top())) {
        heap.pop();
        heap.push({s, r.id, i});
      }
    }
    // The heap holds the top max_candidates positive scores by (score desc,
    // id asc) — the same order the final refinement uses, so admission at
    // the pool boundary is consistent with the ranking it feeds.
    while (!heap.empty()) {
      pool.insert(heap.top().slot);
      heap.pop();
    }
  } else if (UsesSar()) {
    // Vectorize the query descriptor through the dictionary (by user name:
    // this is exactly the lookup path SAR vs SAR-H optimizes), then walk
    // only the query's non-zero bins' posting lists. One pass fills both
    // the dot-product candidate ranking and the Σmin accumulator the
    // refinement scores from; records absent from the accumulator share no
    // sub-community with the query and are never touched again.
    social_query.sparse =
        dictionary_->VectorizeByNameSparse(NamesOf(descriptor));
    const std::vector<std::pair<int64_t, double>> candidates =
        inverted_file_.CandidatesSparse(social_query.sparse.bins,
                                        &social_query.min_overlap);
    timing.social_candidates_skipped =
        index_of_.size() - social_query.min_overlap.size();
    for (const auto& [vid, score] : candidates) {
      if (pool.size() >= options_.max_candidates) break;
      const auto idx = index_of_.find(vid);
      if (idx != index_of_.end()) pool.insert(idx->second);
    }
  }
  timing.social_ms = phase.ElapsedMillis();

  // --- Content candidate stage (Figure 6 lines 5-6). ---
  phase.Restart();
  const bool kappa_fast = UsesKappaFastPath();
  signature::PreparedSeries query_prepared;
  signature::SeriesViewStorage query_store(arena);
  signature::PreparedSeriesView query_view;
  if (kappa_fast) {
    query_prepared = signature::PrepareSeries(series);
    query_view = signature::MakeSeriesView(query_prepared, &query_store);
  }
  if (options_.use_content) {
    if (lsb_ != nullptr) {
      auto hits = lsb_->CandidatesForPreparedSeries(query_prepared, probes);
      std::vector<std::pair<int, video::VideoId>> ranked;
      ranked.reserve(hits.size());
      for (const auto& [vid, count] : hits) ranked.emplace_back(count, vid);
      // Hit count descending, ties by ascending video id (deterministic and
      // consistent with refinement's tie-break).
      std::sort(ranked.begin(), ranked.end(),
                [](const std::pair<int, video::VideoId>& a,
                   const std::pair<int, video::VideoId>& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
      // The content stage shares one pool budget with the social stage:
      // max_candidates caps the pool, not each stage's own contribution.
      for (const auto& [count, vid] : ranked) {
        if (pool.size() >= options_.max_candidates) break;
        const auto idx = index_of_.find(vid);
        if (idx != index_of_.end()) pool.insert(idx->second);
      }
    } else {
      // Exhaustive content mode (DTW / ERP baselines, or index disabled).
      for (size_t i = 0; i < records_.size(); ++i) {
        if (records_[i].active) pool.insert(i);
      }
    }
  }
  if (!options_.use_content && options_.social_mode == SocialMode::kNone) {
    return Status::InvalidArgument(
        "at least one of content and social must be enabled");
  }
  // SR with sparse social overlap can yield fewer candidates than k; pad
  // with arbitrary videos so the contract of K results holds.
  for (size_t i = 0; i < records_.size() && pool.size() <
                                                static_cast<size_t>(k) + 1;
       ++i) {
    if (records_[i].active) pool.insert(i);
  }
  timing.content_ms = phase.ElapsedMillis();
  timing.candidates = pool.size();

  // --- Refinement (Figure 6 lines 7-10): FJ over the pool. ---
  phase.Restart();
  std::vector<ScoredVideo> scored;
  // The result order everywhere: score descending, ties by ascending id.
  auto better = [](const ScoredVideo& a, const ScoredVideo& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  signature::KappaJStats kstats;

  if (kappa_fast) {
    // Threshold-based top-K refinement. Social scores are cheap — compute
    // them (or, in kExact, their cardinality bound) first, visit candidates
    // in descending social order (best FJ prospects fill the top-K early,
    // tightening the bar), and skip any candidate whose fused upper bound
    // cannot displace the running k-th best. Every skip is exact: a skipped
    // candidate's true FJ is strictly below the k-th best score of the full
    // scan, so it cannot appear in its top-K either — scores, order and
    // tie-breaks are bit-for-bit those of scoring every pool member (see
    // docs/algorithms.md for the argument, including why the kBoundSlack
    // guard makes the float comparison safe).
    // In kExact the per-candidate "social" seeded below is the cardinality
    // upper bound, not the score itself: the merge-intersection is the
    // expensive part, so stage 1 skips it outright for candidates whose
    // bound already fails the bar. SAR modes resolve social up front from
    // the posting walk's Σmin table.
    const bool exact_bound_order = options_.social_mode == SocialMode::kExact;
    struct Pending {
      size_t slot;
      double social;  // exact social, or its upper bound (kExact)
    };
    std::vector<Pending> pending;
    pending.reserve(pool.size());
    for (size_t i : pool) {
      const Record& record = records_[i];
      if (record.id == exclude || !record.active) continue;
      const double s =
          exact_bound_order
              ? social::JaccardCardinalityBound(descriptor.size(),
                                                record.descriptor.size())
              : SocialScore(social_query, i, record, &timing);
      pending.push_back({i, s});
    }
    std::sort(pending.begin(), pending.end(),
              [this](const Pending& a, const Pending& b) {
                if (a.social != b.social) return a.social > b.social;
                return records_[a.slot].id < records_[b.slot].id;
              });
    // Shared by every candidate this query, arena-backed.
    signature::KappaJScratch scratch(arena);
    // Per candidate, one batched SimCUpperBoundMany call per query
    // signature fills the centroid-bound matrix, which the refinement
    // cascade and the pair prune then share — the bound divisions happen
    // once, vectorized. Consumers read the matrix in the exact (i, j) order
    // the scalar bound is defined in, so every comparison sees the
    // identical IEEE value.
    util::ArenaVector<double> bound_matrix{
        util::ArenaAllocator<double>(arena)};
    auto fill_bounds =
        [&](const signature::PreparedSeriesView& c) -> const double* {
      if (query_view.count == 0 || c.count == 0) return nullptr;
      bound_matrix.resize(query_view.count * c.count);
      for (size_t qi = 0; qi < query_view.count; ++qi) {
        util::simd::SimCUpperBoundMany(query_view.means[qi], c.means, c.count,
                                       bound_matrix.data() + qi * c.count);
      }
      ++timing.bound_batches;
      return bound_matrix.data();
    };
    // Min-heap of the running top-K: top() is the current k-th best.
    std::priority_queue<ScoredVideo, std::vector<ScoredVideo>,
                        decltype(better)>
        topk(better);
    const size_t want = static_cast<size_t>(k);
    for (const Pending& p : pending) {
      const Record& record = records_[p.slot];
      const bool full = topk.size() == want;
      const double bar =
          full ? topk.top().score - signature::kBoundSlack : 0.0;
      // Cascade stage 1: kJ <= 1, so FuseScore(1, social) bounds FJ for
      // free (with p.social itself a bound in kExact, where a skip here
      // also saves the id merge).
      if (full && FuseScore(1.0, p.social) < bar) {
        ++timing.candidates_pruned;
        if (exact_bound_order) ++timing.exact_social_pruned;
        continue;
      }
      const double social =
          exact_bound_order ? SocialScore(social_query, p.slot, record, &timing)
                            : p.social;
      if (full && exact_bound_order && FuseScore(1.0, social) < bar) {
        // The resolved exact score can fail the bar its bound passed.
        ++timing.candidates_pruned;
        continue;
      }
      timing.pool_bytes_streamed += prepared_pool_.BytesOf(p.slot);
      const signature::PreparedSeriesView cview = prepared_pool_.View(p.slot);
      // Batch-filled once per candidate, shared by stage 2 and the pair
      // prune.
      const double* bounds = fill_bounds(cview);
      if (full) {
        // Cascade stage 2: the centroid-bound matrix (O(|S1|*|S2|), no
        // EMD).
        const double content_ub = signature::KappaJUpperBound(
            query_view, cview, options_.kappa, bounds, &scratch);
        if (FuseScore(content_ub, social) < bar) {
          ++timing.candidates_pruned;
          continue;
        }
      }
      ScoredVideo sv;
      sv.id = record.id;
      sv.social = social;
      sv.content = signature::KappaJPrepared(query_view, cview, options_.kappa,
                                             /*prune=*/true, bounds, &scratch,
                                             &kstats);
      sv.score = FuseScore(sv.content, sv.social);
      if (topk.size() < want) {
        topk.push(sv);
      } else if (better(sv, topk.top())) {
        topk.pop();
        topk.push(sv);
      }
    }
    // Drain worst-first, then reverse into the final ranking.
    scored.reserve(topk.size());
    while (!topk.empty()) {
      scored.push_back(topk.top());
      topk.pop();
    }
    std::reverse(scored.begin(), scored.end());
  } else {
    // Full scan: DTW / ERP content (no bound to prune with) or SR (no
    // content term at all).
    scored.reserve(pool.size());
    for (size_t i : pool) {
      const Record& record = records_[i];
      if (record.id == exclude || !record.active) continue;
      ScoredVideo sv;
      sv.id = record.id;
      if (options_.use_content) sv.content = SequenceScore(series, record);
      sv.social = SocialScore(social_query, i, record, &timing);
      sv.score = FuseScore(sv.content, sv.social);
      scored.push_back(sv);
    }
    std::sort(scored.begin(), scored.end(), better);
    if (scored.size() > static_cast<size_t>(k)) {
      scored.resize(static_cast<size_t>(k));
    }
  }
  timing.emd_calls = kstats.emd_calls;
  timing.pairs_pruned = kstats.pairs_pruned;
  timing.refine_ms = phase.ElapsedMillis();
  timing.total_ms = total.ElapsedMillis();
  if (timing_out != nullptr) *timing_out = timing;
  return scored;
}

StatusOr<social::MaintenanceStats> Recommender::ApplySocialUpdate(
    const std::vector<social::SocialConnection>& connections,
    const std::vector<std::pair<video::VideoId, social::UserId>>&
        new_comments) {
  if (!finalized_) return Status::FailedPrecondition("Finalize() not called");

  // 1. Extend descriptors with the period's comments.
  std::set<size_t> touched_videos;
  for (const auto& [vid, user] : new_comments) {
    const auto it = index_of_.find(vid);
    if (it == index_of_.end()) continue;
    Record& record = records_[it->second];
    if (!record.descriptor.Contains(user)) {
      record.descriptor.Add(user);
      if (!descriptor_sizes_.empty()) {
        descriptor_sizes_[it->second] =
            static_cast<double>(record.descriptor.size());
      }
      videos_of_user_[user].push_back(it->second);
      touched_videos.insert(it->second);
    }
    user_count_ = std::max(user_count_, static_cast<size_t>(user) + 1);
  }

  social::MaintenanceStats stats;
  if (maintainer_ != nullptr) {
    // 2. Run Figure 5's maintenance over the new connections.
    StatusOr<social::MaintenanceStats> result =
        maintainer_->ApplyUpdates(connections);
    if (!result.ok()) return result.status();
    stats = std::move(result).value();

    // 3. Refresh the vectors of videos touched by comments or by community
    //    membership changes (incremental, per the paper's Section 4.2.5).
    for (int community : stats.changed_communities) {
      for (social::UserId member : maintainer_->MembersOf(community)) {
        const auto it = videos_of_user_.find(member);
        if (it == videos_of_user_.end()) continue;
        for (size_t v : it->second) touched_videos.insert(v);
      }
    }
    for (size_t v : touched_videos) RefreshVideoVector(v);
  }
  stats.connections_processed = connections.size();
  generation_.fetch_add(1, std::memory_order_acq_rel);
  VREC_DCHECK_OK(CheckInvariants());
  return stats;
}

}  // namespace vrec::core
