#ifndef VREC_INDEX_INVERTED_FILE_H_
#define VREC_INDEX_INVERTED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace vrec::index {

/// The k inverted files of Section 4.4: one posting list per sub-community
/// id, each listing the videos whose social descriptors contain users of
/// that sub-community (with the per-video user count as posting weight).
///
/// Class invariant (see CheckInvariants): every posting list is non-empty
/// and strictly sorted by ascending video id — so lists are duplicate-free
/// by construction and membership is binary-searchable.
class InvertedFile {
 public:
  struct Posting {
    int64_t video_id = -1;
    double weight = 0.0;  // #descriptor users in this sub-community
  };

  /// Adds (or accumulates) a posting: binary-searches the sorted list and
  /// either bumps the existing posting's weight or inserts at the right
  /// position (O(log n) search + O(n) shift).
  void Add(int community, int64_t video_id, double weight);

  /// Append fast path: the caller guarantees `video_id` has no existing
  /// posting in `community` (true after RemoveVideoFromCommunity, and for
  /// any build-from-scratch). Appending in ascending video-id order — the
  /// rebuild order — is O(1); out-of-order ids fall back to a sorted
  /// insert.
  void Append(int community, int64_t video_id, double weight);

  /// Drops every posting of `video_id` in `community` (descriptor refresh).
  void RemoveVideoFromCommunity(int community, int64_t video_id);

  /// Drops the whole posting list of a retired community id.
  void RemoveCommunity(int community);

  const std::vector<Posting>& Postings(int community) const;

  /// Social candidate generation: accumulates, for every video sharing a
  /// non-zero sub-community with the query histogram, the dot product of
  /// query mass and posting weight, walking only the query's non-zero
  /// bins' posting lists — videos sharing no sub-community with the query
  /// are never touched. Returns (video id, score) sorted by descending
  /// score, ties by ascending id. `query_bins` must be (bin, mass) pairs
  /// sorted by bin with positive masses. When `min_overlap` is
  /// non-null it receives, per touched video, Σ min(query mass, posting
  /// weight) over the shared bins — Equation 6's numerator — accumulated
  /// term-at-a-time in the same single pass, which is what the
  /// recommender's SAR fast path scores candidates from.
  std::vector<std::pair<int64_t, double>> CandidatesSparse(
      const std::vector<std::pair<int, double>>& query_bins,
      std::unordered_map<int64_t, double>* min_overlap = nullptr) const;

  size_t community_count() const { return lists_.size(); }

  /// Snapshot accessor: the full community -> posting-list map, in
  /// ascending community order. Restoring via Append() in this order
  /// reproduces the structure exactly.
  const std::map<int, std::vector<Posting>>& lists() const { return lists_; }

  /// Verifies the class invariant: every list is non-empty and strictly
  /// sorted by video id (hence deduped), with finite positive weights.
  [[nodiscard]]
  Status CheckInvariants() const;

 private:
  std::map<int, std::vector<Posting>> lists_;
  static const std::vector<Posting> kEmpty;
};

}  // namespace vrec::index

#endif  // VREC_INDEX_INVERTED_FILE_H_
