#include "social/sar.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace vrec::social {

namespace {

// Folds a sorted bin list into (bin, count) pairs. Shared by every sparse
// vectorization path so they produce byte-identical histograms. Takes a raw
// span so heap- and arena-backed bin buffers go through the same code.
void RunLengthEncode(const int* sorted_bins, size_t n,
                     SparseHistogram* out) {
  out->clear();
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && sorted_bins[j] == sorted_bins[i]) ++j;
    const double weight = static_cast<double>(j - i);
    out->bins.emplace_back(sorted_bins[i], weight);
    out->sum += weight;
    i = j;
  }
}

}  // namespace

Status CheckSparseHistogram(const SparseHistogram& histogram, int k) {
  double sum = 0.0;
  for (size_t i = 0; i < histogram.bins.size(); ++i) {
    const auto& [bin, weight] = histogram.bins[i];
    if (bin < 0 || (k >= 0 && bin >= k)) {
      return Status::Internal("sparse histogram bin " + std::to_string(bin) +
                              " outside [0, " + std::to_string(k) + ")");
    }
    if (!std::isfinite(weight) || weight <= 0.0) {
      return Status::Internal("sparse histogram bin " + std::to_string(bin) +
                              " has non-positive weight");
    }
    if (i > 0 && histogram.bins[i - 1].first >= bin) {
      return Status::Internal("sparse histogram bins not strictly sorted at " +
                              std::to_string(bin));
    }
    sum += weight;
  }
  if (sum != histogram.sum) {
    return Status::Internal("sparse histogram cached sum " +
                            std::to_string(histogram.sum) +
                            " != recomputed " + std::to_string(sum));
  }
  return Status::Ok();
}

UserDictionary::UserDictionary(const std::vector<int>& labels, int k,
                               DictionaryLookup lookup)
    // Size the table for ~2 entries per bucket on average.
    : UserDictionary(labels, k, lookup,
                     std::max<size_t>(16, labels.size() / 2)) {}

UserDictionary::UserDictionary(const std::vector<int>& labels, int k,
                               DictionaryLookup lookup, size_t hash_buckets)
    : k_(k),
      lookup_(lookup),
      user_count_(labels.size()),
      label_of_user_(labels),
      hash_table_(hash_buckets) {
  RebuildLookupStructures();
}

void UserDictionary::RebuildLookupStructures() {
  entries_.clear();
  if (lookup_ == DictionaryLookup::kChainedHash) {
    for (size_t u = 0; u < user_count_; ++u) {
      hash_table_.InsertOrAssign(UserName(static_cast<UserId>(u)),
                                 label_of_user_[u]);
    }
    return;
  }
  entries_.reserve(user_count_);
  for (size_t u = 0; u < user_count_; ++u) {
    entries_.emplace_back(UserName(static_cast<UserId>(u)),
                          label_of_user_[u]);
  }
  if (lookup_ == DictionaryLookup::kSortedArray) {
    std::sort(entries_.begin(), entries_.end());
  }
}

std::optional<int> UserDictionary::CommunityOfName(
    const std::string& name) const {
  switch (lookup_) {
    case DictionaryLookup::kChainedHash: {
      const auto found = hash_table_.Find(name);
      if (!found.has_value()) return std::nullopt;
      return static_cast<int>(*found);
    }
    case DictionaryLookup::kSortedArray: {
      const auto it = std::lower_bound(
          entries_.begin(), entries_.end(), name,
          [](const auto& entry, const std::string& n) {
            return entry.first < n;
          });
      if (it == entries_.end() || it->first != name) return std::nullopt;
      return it->second;
    }
    case DictionaryLookup::kLinearScan: {
      for (const auto& [key, cno] : entries_) {
        if (key == name) return cno;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<int> UserDictionary::CommunityOf(UserId user) const {
  if (user < 0 || static_cast<size_t>(user) >= user_count_) {
    return std::nullopt;
  }
  return label_of_user_[static_cast<size_t>(user)];
}

void UserDictionary::Assign(UserId user, int community) {
  if (user < 0) return;
  const auto u = static_cast<size_t>(user);
  if (u == user_count_) {
    label_of_user_.push_back(community);
    ++user_count_;
  } else if (u < user_count_) {
    label_of_user_[u] = community;
  } else {
    return;  // non-contiguous ids are not supported
  }
  k_ = std::max(k_, community + 1);
  const std::string name = UserName(user);
  switch (lookup_) {
    case DictionaryLookup::kChainedHash:
      hash_table_.InsertOrAssign(name, community);
      return;
    case DictionaryLookup::kSortedArray: {
      const auto it = std::lower_bound(
          entries_.begin(), entries_.end(), name,
          [](const auto& entry, const std::string& n) {
            return entry.first < n;
          });
      if (it != entries_.end() && it->first == name) {
        it->second = community;
      } else {
        entries_.insert(it, {name, community});
      }
      return;
    }
    case DictionaryLookup::kLinearScan: {
      for (auto& [key, cno] : entries_) {
        if (key == name) {
          cno = community;
          return;
        }
      }
      entries_.emplace_back(name, community);
      return;
    }
  }
}

void UserDictionary::ReplaceCommunity(int from, int to) {
  for (int& l : label_of_user_) {
    if (l == from) l = to;
  }
  if (lookup_ == DictionaryLookup::kChainedHash) {
    hash_table_.ReplaceCno(from, to);
  } else {
    for (auto& [name, cno] : entries_) {
      if (cno == from) cno = to;
    }
  }
}

Status UserDictionary::CheckInvariants() const {
  if (label_of_user_.size() != user_count_) {
    return Status::Internal("label array size != user count");
  }
  for (size_t u = 0; u < user_count_; ++u) {
    if (label_of_user_[u] < 0 || label_of_user_[u] >= k_) {
      return Status::Internal("user " + std::to_string(u) + " labeled " +
                              std::to_string(label_of_user_[u]) +
                              ", outside [0, k)");
    }
  }
  if (lookup_ == DictionaryLookup::kChainedHash) {
    if (!entries_.empty()) {
      return Status::Internal("hash mode must not keep the entry array");
    }
    if (const Status s = hash_table_.CheckInvariants(); !s.ok()) return s;
    if (hash_table_.size() != user_count_) {
      return Status::Internal("hash table holds " +
                              std::to_string(hash_table_.size()) +
                              " entries for " + std::to_string(user_count_) +
                              " users");
    }
    for (size_t u = 0; u < user_count_; ++u) {
      const auto found =
          hash_table_.FindWithoutStats(UserName(static_cast<UserId>(u)));
      if (!found.has_value() || *found != label_of_user_[u]) {
        return Status::Internal("hash table out of sync for user " +
                                std::to_string(u));
      }
    }
    return Status::Ok();
  }
  if (entries_.size() != user_count_) {
    return Status::Internal("entry array size != user count");
  }
  if (lookup_ == DictionaryLookup::kSortedArray &&
      !std::is_sorted(entries_.begin(), entries_.end())) {
    return Status::Internal("sorted-array entries out of order");
  }
  for (size_t u = 0; u < user_count_; ++u) {
    const auto found = CommunityOfName(UserName(static_cast<UserId>(u)));
    if (!found.has_value() || *found != label_of_user_[u]) {
      return Status::Internal("entry array out of sync for user " +
                              std::to_string(u));
    }
  }
  return Status::Ok();
}

SparseHistogram UserDictionary::VectorizeSparse(
    const SocialDescriptor& descriptor) const {
  SparseHistogram out;
  VectorizeSparse(descriptor, &out, /*arena=*/nullptr);
  return out;
}

void UserDictionary::VectorizeSparse(const SocialDescriptor& descriptor,
                                     SparseHistogram* out,
                                     util::Arena* arena) const {
  util::ArenaVector<int> scratch{util::ArenaAllocator<int>(arena)};
  scratch.reserve(descriptor.size());
  for (UserId u : descriptor.users()) {
    const auto c = CommunityOf(u);
    if (c.has_value() && *c >= 0 && *c < k_) scratch.push_back(*c);
  }
  std::sort(scratch.begin(), scratch.end());
  RunLengthEncode(scratch.data(), scratch.size(), out);
}

SparseHistogram UserDictionary::VectorizeByNameSparse(
    const std::vector<std::string>& names) const {
  std::vector<int> bins;
  bins.reserve(names.size());
  for (const std::string& name : names) {
    const auto c = CommunityOfName(name);
    if (c.has_value() && *c >= 0 && *c < k_) bins.push_back(*c);
  }
  std::sort(bins.begin(), bins.end());
  SparseHistogram out;
  RunLengthEncode(bins.data(), bins.size(), &out);
  return out;
}

namespace {

// Accessor adapters funnel both histogram layouts through one merge body,
// so the comparisons and the Σmin additions run in the identical order for
// every overload — the view overloads are bit-for-bit the pair overload.
struct AosBins {
  const SparseHistogram& h;
  size_t size() const { return h.bins.size(); }
  int bin(size_t i) const { return h.bins[i].first; }
  double weight(size_t i) const { return h.bins[i].second; }
  double sum() const { return h.sum; }
};

struct SoaBins {
  const SparseHistogramView& h;
  size_t size() const { return h.len; }
  int bin(size_t i) const { return h.bins[i]; }
  double weight(size_t i) const { return h.weights[i]; }
  double sum() const { return h.sum; }
};

template <typename A, typename B>
double ApproxJaccardMerge(const A& a, const B& b) {
  double num = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.bin(i) < b.bin(j)) {
      ++i;
    } else if (b.bin(j) < a.bin(i)) {
      ++j;
    } else {
      num += std::min(a.weight(i), b.weight(j));
      ++i;
      ++j;
    }
  }
  const double den = a.sum() + b.sum() - num;
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

double ApproxJaccardSparse(const SparseHistogram& a,
                           const SparseHistogram& b) {
  return ApproxJaccardMerge(AosBins{a}, AosBins{b});
}

double ApproxJaccardSparse(const SparseHistogram& a,
                           const SparseHistogramView& b) {
  return ApproxJaccardMerge(AosBins{a}, SoaBins{b});
}

}  // namespace vrec::social
