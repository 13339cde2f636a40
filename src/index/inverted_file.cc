#include "index/inverted_file.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "util/check.h"

namespace vrec::index {

namespace {

// First posting with video_id >= `video_id` in a sorted list.
std::vector<InvertedFile::Posting>::iterator PostingLowerBound(
    std::vector<InvertedFile::Posting>& list, int64_t video_id) {
  return std::lower_bound(
      list.begin(), list.end(), video_id,
      [](const InvertedFile::Posting& p, int64_t id) { return p.video_id < id; });
}

}  // namespace

const std::vector<InvertedFile::Posting> InvertedFile::kEmpty = {};

void InvertedFile::Add(int community, int64_t video_id, double weight) {
  auto& list = lists_[community];
  const auto it = PostingLowerBound(list, video_id);
  if (it != list.end() && it->video_id == video_id) {
    it->weight += weight;
    return;
  }
  list.insert(it, {video_id, weight});
}

void InvertedFile::Append(int community, int64_t video_id, double weight) {
  auto& list = lists_[community];
  if (list.empty() || list.back().video_id < video_id) {
    list.push_back({video_id, weight});
    return;
  }
  const auto it = PostingLowerBound(list, video_id);
  VREC_DCHECK(it == list.end() || it->video_id != video_id);
  list.insert(it, {video_id, weight});
}

void InvertedFile::RemoveVideoFromCommunity(int community, int64_t video_id) {
  const auto it = lists_.find(community);
  if (it == lists_.end()) return;
  auto& list = it->second;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [video_id](const Posting& p) {
                              return p.video_id == video_id;
                            }),
             list.end());
  if (list.empty()) lists_.erase(it);
}

void InvertedFile::RemoveCommunity(int community) { lists_.erase(community); }

const std::vector<InvertedFile::Posting>& InvertedFile::Postings(
    int community) const {
  const auto it = lists_.find(community);
  return it == lists_.end() ? kEmpty : it->second;
}

Status InvertedFile::CheckInvariants() const {
  for (const auto& [community, list] : lists_) {
    if (list.empty()) {
      return Status::Internal("community " + std::to_string(community) +
                              " holds an empty posting list");
    }
    for (size_t i = 0; i < list.size(); ++i) {
      if (!std::isfinite(list[i].weight) || list[i].weight <= 0.0) {
        return Status::Internal(
            "community " + std::to_string(community) + " posting for video " +
            std::to_string(list[i].video_id) + " has non-positive weight");
      }
      if (i > 0 && list[i - 1].video_id >= list[i].video_id) {
        return Status::Internal("community " + std::to_string(community) +
                                " postings not strictly sorted at video " +
                                std::to_string(list[i].video_id));
      }
    }
  }
  return Status::Ok();
}

std::vector<std::pair<int64_t, double>> InvertedFile::CandidatesSparse(
    const std::vector<std::pair<int, double>>& query_bins,
    std::unordered_map<int64_t, double>* min_overlap) const {
  std::unordered_map<int64_t, double> scores;
  for (const auto& [bin, mass] : query_bins) {
    if (mass <= 0.0) continue;
    const auto it = lists_.find(bin);
    if (it == lists_.end()) continue;
    for (const Posting& p : it->second) {
      scores[p.video_id] += mass * p.weight;
      if (min_overlap != nullptr) {
        (*min_overlap)[p.video_id] += std::min(mass, p.weight);
      }
    }
  }
  std::vector<std::pair<int64_t, double>> out(scores.begin(), scores.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace vrec::index
