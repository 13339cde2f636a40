#ifndef VREC_REFERENCE_ORACLE_H_
#define VREC_REFERENCE_ORACLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recommender.h"
#include "index/lsb_index.h"
#include "social/sar.h"
#include "social/update_maintainer.h"
#include "util/status.h"

namespace vrec::reference {

/// A naive recommender with the engine's candidate admission rules, used
/// as the ground truth the engine (and its snapshot twins) must match bit
/// for bit. It owns its own copy of the paper's substrate — UIG,
/// sub-community extraction, user dictionary, update maintainer and LSB
/// forest — but none of the engine's fast paths: no pools, no posting Σmin
/// walk, no bound kernels, no pruned κJ.
///
/// Per query:
///   - kExact candidates: the top max_candidates positive Equation 5
///     scores over user-name sets (score desc, id asc).
///   - SAR candidates: the top max_candidates positive dense dot products
///     of the query and record histograms (score desc, id asc).
///   - Content candidates: LSB hit count desc, id asc, into the same
///     max_candidates budget; or every live video without the index.
///   - The pool is padded in slot order to k + 1 live videos.
///   - Every pool member is scored with unpruned signature::KappaJ (or
///     DTW / ERP), name-set Equation 5 or dense Equation 6, fused, and
///     fully sorted (score desc, id asc).
/// Dense histograms are recomputed for every live video after each
/// mutation rather than maintained incrementally.
class Oracle {
 public:
  /// Wall time of one query's two halves, for the scoring benches.
  struct Timing {
    double candidates_ms = 0.0;  // social + content admission, padding
    double refine_ms = 0.0;      // scoring every pool member, full sort
  };

  explicit Oracle(core::RecommenderOptions options);

  [[nodiscard]]
  Status AddVideoRecord(video::VideoId id, signature::SignatureSeries series,
                        social::SocialDescriptor descriptor);
  [[nodiscard]]
  Status Finalize(size_t user_count);

  [[nodiscard]]
  StatusOr<std::vector<core::ScoredVideo>> Recommend(
      const signature::SignatureSeries& series,
      const social::SocialDescriptor& descriptor, int k,
      video::VideoId exclude = -1, Timing* timing = nullptr) const;
  [[nodiscard]]
  StatusOr<std::vector<core::ScoredVideo>> RecommendById(
      video::VideoId id, int k, Timing* timing = nullptr) const;

  [[nodiscard]]
  Status RemoveVideo(video::VideoId id);
  [[nodiscard]]
  StatusOr<social::MaintenanceStats> ApplySocialUpdate(
      const std::vector<social::SocialConnection>& connections,
      const std::vector<std::pair<video::VideoId, social::UserId>>&
          new_comments);

 private:
  struct Record {
    video::VideoId id = -1;
    signature::SignatureSeries series;
    social::SocialDescriptor descriptor;
    std::vector<std::string> names;
    std::vector<double> histogram;  // dense, SAR modes
    bool active = true;
  };

  bool UsesSar() const;
  /// Recomputes every live record's dense histogram from the dictionary.
  void Revectorize();
  double ContentScore(const signature::SignatureSeries& query,
                      const Record& record) const;
  double FuseScore(double content, double social) const;

  core::RecommenderOptions options_;
  bool finalized_ = false;
  std::vector<Record> records_;
  std::unordered_map<video::VideoId, size_t> slot_of_;
  std::unique_ptr<social::UserDictionary> dictionary_;
  std::unique_ptr<social::SubCommunityMaintainer> maintainer_;
  std::unique_ptr<index::LsbIndex> lsb_;
};

}  // namespace vrec::reference

#endif  // VREC_REFERENCE_ORACLE_H_
