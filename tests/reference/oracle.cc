#include "reference/oracle.h"

#include <algorithm>
#include <set>

#include "reference/kernels.h"
#include "signature/prepared_signature.h"
#include "signature/sequence_distances.h"
#include "signature/series_measures.h"
#include "social/subcommunity.h"
#include "social/uig.h"
#include "util/stopwatch.h"

namespace vrec::reference {

using core::ScoredVideo;
using core::SocialMode;

namespace {

bool Better(const ScoredVideo& a, const ScoredVideo& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// The ids of (score, id) pairs ranked score desc, id asc.
std::vector<video::VideoId> Ranked(
    std::vector<std::pair<double, video::VideoId>> scored) {
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<video::VideoId> ids;
  for (const auto& [score, id] : scored) ids.push_back(id);
  return ids;
}

}  // namespace

Oracle::Oracle(core::RecommenderOptions options)
    : options_(std::move(options)) {}

bool Oracle::UsesSar() const {
  return options_.social_mode == SocialMode::kSar ||
         options_.social_mode == SocialMode::kSarHash;
}

Status Oracle::AddVideoRecord(video::VideoId id,
                              signature::SignatureSeries series,
                              social::SocialDescriptor descriptor) {
  if (finalized_) {
    return Status::FailedPrecondition("cannot add videos after Finalize");
  }
  if (slot_of_.count(id) > 0) {
    return Status::InvalidArgument("duplicate video id");
  }
  Record record;
  record.id = id;
  record.series = std::move(series);
  record.descriptor = std::move(descriptor);
  record.names = NamesOf(record.descriptor);
  slot_of_[id] = records_.size();
  records_.push_back(std::move(record));
  return Status::Ok();
}

Status Oracle::Finalize(size_t user_count) {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  if (const Status s = core::ValidateOptions(options_); !s.ok()) return s;
  if (UsesSar()) {
    // The engine's substrate pipeline: UIG, k sub-communities over and
    // above the isolated users, dictionary, maintainer.
    std::vector<social::SocialDescriptor> descriptors;
    for (const Record& r : records_) descriptors.push_back(r.descriptor);
    const graph::WeightedGraph uig =
        social::BuildUserInterestGraph(descriptors, user_count);
    const auto [labels, components] = uig.ConnectedComponents();
    std::vector<size_t> component_size(static_cast<size_t>(components), 0);
    for (int l : labels) ++component_size[static_cast<size_t>(l)];
    size_t singletons = 0;
    for (size_t s : component_size) singletons += s <= 1 ? 1 : 0;
    const int effective_k = static_cast<int>(
        std::min(uig.node_count(),
                 static_cast<size_t>(options_.k_subcommunities) + singletons));
    StatusOr<social::SubCommunityResult> extraction =
        social::ExtractSubCommunities(uig, effective_k);
    if (!extraction.ok()) return extraction.status();
    // The lookup structure is part of the method (SAR scans the
    // dictionary, SAR-H hashes), so the oracle pays the same name lookups.
    dictionary_ = std::make_unique<social::UserDictionary>(
        extraction->labels, extraction->num_communities,
        options_.social_mode == SocialMode::kSarHash
            ? social::DictionaryLookup::kChainedHash
            : social::DictionaryLookup::kLinearScan);
    maintainer_ = std::make_unique<social::SubCommunityMaintainer>(
        uig, *extraction, options_.k_subcommunities, dictionary_.get());
    Revectorize();
  }
  if (options_.use_content &&
      options_.content_measure == core::ContentMeasure::kKappaJ &&
      options_.use_lsb_index) {
    // Every ingested video is indexed, as in the engine; removed ones are
    // filtered at query time.
    std::vector<signature::PreparedSeries> prepared;
    prepared.reserve(records_.size());
    for (const Record& r : records_) {
      prepared.push_back(signature::PrepareSeries(r.series));
    }
    std::vector<std::pair<int64_t, const signature::PreparedSeries*>> series;
    for (size_t i = 0; i < records_.size(); ++i) {
      series.emplace_back(records_[i].id, &prepared[i]);
    }
    lsb_ = std::make_unique<index::LsbIndex>(options_.lsb);
    lsb_->AddVideosBulkPrepared(series, nullptr);
  }
  finalized_ = true;
  return Status::Ok();
}

void Oracle::Revectorize() {
  for (Record& r : records_) {
    r.histogram = r.active ? Vectorize(*dictionary_, r.descriptor)
                           : std::vector<double>();
  }
}

double Oracle::ContentScore(const signature::SignatureSeries& query,
                            const Record& record) const {
  switch (options_.content_measure) {
    case core::ContentMeasure::kKappaJ:
      return signature::KappaJ(query, record.series, options_.kappa);
    case core::ContentMeasure::kDtw:
      return signature::DtwSimilarity(query, record.series);
    case core::ContentMeasure::kErp:
      return signature::ErpSimilarity(query, record.series);
  }
  return 0.0;
}

double Oracle::FuseScore(double content, double social) const {
  if (!options_.use_content) return social;
  if (options_.social_mode == SocialMode::kNone) return content;
  switch (options_.fusion_rule) {
    case core::FusionRule::kWeighted:
      return (1.0 - options_.omega) * content + options_.omega * social;
    case core::FusionRule::kAverage:
      return 0.5 * (content + social);
    case core::FusionRule::kMax:
      return std::max(content, social);
  }
  return 0.0;
}

StatusOr<std::vector<ScoredVideo>> Oracle::RecommendById(
    video::VideoId id, int k, Timing* timing) const {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return Status::NotFound("unknown video id");
  const Record& r = records_[it->second];
  return Recommend(r.series, r.descriptor, k, id, timing);
}

StatusOr<std::vector<ScoredVideo>> Oracle::Recommend(
    const signature::SignatureSeries& series,
    const social::SocialDescriptor& descriptor, int k,
    video::VideoId exclude, Timing* timing) const {
  if (!finalized_) return Status::FailedPrecondition("Finalize() not called");
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  Stopwatch phase;
  // Each stage admits its ranked live ids until the shared pool holds
  // max_candidates; removed ids (still in the LSB forest) are skipped.
  const size_t cap = options_.max_candidates;
  std::set<size_t> pool;
  auto admit = [&](const std::vector<video::VideoId>& ids) {
    for (video::VideoId id : ids) {
      if (pool.size() >= cap) break;
      const auto it = slot_of_.find(id);
      if (it != slot_of_.end()) pool.insert(it->second);
    }
  };

  // Social candidates.
  const std::vector<std::string> query_names = NamesOf(descriptor);
  std::vector<double> query_histogram;
  if (options_.social_mode == SocialMode::kExact) {
    std::vector<std::pair<double, video::VideoId>> scored;
    for (const Record& r : records_) {
      if (!r.active) continue;
      const double s = ExactJaccardByNames(query_names, r.names);
      if (s > 0.0) scored.emplace_back(s, r.id);
    }
    admit(Ranked(std::move(scored)));
  } else if (UsesSar()) {
    query_histogram = VectorizeByName(*dictionary_, query_names);
    std::vector<std::pair<double, video::VideoId>> scored;
    for (const Record& r : records_) {
      if (!r.active) continue;
      double dot = 0.0;
      const size_t n = std::min(query_histogram.size(), r.histogram.size());
      for (size_t c = 0; c < n; ++c) {
        if (query_histogram[c] > 0.0 && r.histogram[c] > 0.0) {
          dot += query_histogram[c] * r.histogram[c];
        }
      }
      if (dot > 0.0) scored.emplace_back(dot, r.id);
    }
    admit(Ranked(std::move(scored)));
  }

  // Content candidates.
  if (options_.use_content) {
    if (lsb_ != nullptr) {
      std::vector<std::pair<double, video::VideoId>> hits;
      for (const auto& [id, count] : lsb_->CandidatesForPreparedSeries(
               signature::PrepareSeries(series), options_.lsb_probes)) {
        hits.emplace_back(static_cast<double>(count), id);
      }
      admit(Ranked(std::move(hits)));
    } else {
      for (size_t i = 0; i < records_.size(); ++i) {
        if (records_[i].active) pool.insert(i);
      }
    }
  }
  for (size_t i = 0; i < records_.size() && pool.size() <
                                                static_cast<size_t>(k) + 1;
       ++i) {
    if (records_[i].active) pool.insert(i);
  }

  const double candidates_ms = phase.ElapsedMillis();

  // Refinement: score every pool member, full sort.
  phase.Restart();
  std::vector<ScoredVideo> scored;
  for (size_t i : pool) {
    const Record& r = records_[i];
    if (r.id == exclude || !r.active) continue;
    ScoredVideo sv;
    sv.id = r.id;
    if (options_.use_content) sv.content = ContentScore(series, r);
    if (options_.social_mode == SocialMode::kExact) {
      sv.social = ExactJaccardByNames(query_names, r.names);
    } else if (UsesSar()) {
      sv.social = ApproxJaccard(query_histogram, r.histogram);
    }
    sv.score = FuseScore(sv.content, sv.social);
    scored.push_back(sv);
  }
  std::sort(scored.begin(), scored.end(), Better);
  if (scored.size() > static_cast<size_t>(k)) {
    scored.resize(static_cast<size_t>(k));
  }
  if (timing != nullptr) {
    timing->candidates_ms = candidates_ms;
    timing->refine_ms = phase.ElapsedMillis();
  }
  return scored;
}

Status Oracle::RemoveVideo(video::VideoId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return Status::NotFound("unknown video id");
  Record& r = records_[it->second];
  r.active = false;
  r.histogram.clear();
  slot_of_.erase(it);
  return Status::Ok();
}

StatusOr<social::MaintenanceStats> Oracle::ApplySocialUpdate(
    const std::vector<social::SocialConnection>& connections,
    const std::vector<std::pair<video::VideoId, social::UserId>>&
        new_comments) {
  if (!finalized_) return Status::FailedPrecondition("Finalize() not called");
  for (const auto& [id, user] : new_comments) {
    const auto it = slot_of_.find(id);
    if (it == slot_of_.end()) continue;
    Record& r = records_[it->second];
    if (r.descriptor.Contains(user)) continue;
    r.descriptor.Add(user);
    r.names = NamesOf(r.descriptor);
  }
  social::MaintenanceStats stats;
  if (maintainer_ != nullptr) {
    StatusOr<social::MaintenanceStats> result =
        maintainer_->ApplyUpdates(connections);
    if (!result.ok()) return result.status();
    stats = std::move(result).value();
    Revectorize();
  }
  stats.connections_processed = connections.size();
  return stats;
}

}  // namespace vrec::reference
