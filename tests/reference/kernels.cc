#include "reference/kernels.h"

#include <algorithm>
#include <map>

namespace vrec::reference {

std::vector<std::string> NamesOf(const social::SocialDescriptor& descriptor) {
  std::vector<std::string> names;
  names.reserve(descriptor.size());
  for (social::UserId u : descriptor.users()) {
    names.push_back(social::UserName(u));
  }
  return names;
}

double ExactJaccardByNames(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t intersection = 0;
  for (const std::string& ua : a) {
    for (const std::string& ub : b) {
      if (ua == ub) {
        ++intersection;
        break;
      }
    }
  }
  const size_t uni = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

std::vector<double> ToDense(const social::SparseHistogram& histogram, int k) {
  std::vector<double> dense(static_cast<size_t>(std::max(k, 0)), 0.0);
  for (const auto& [bin, weight] : histogram.bins) {
    if (bin >= 0 && static_cast<size_t>(bin) < dense.size()) {
      dense[static_cast<size_t>(bin)] += weight;
    }
  }
  return dense;
}

std::vector<double> Vectorize(const social::UserDictionary& dictionary,
                              const social::SocialDescriptor& descriptor) {
  const int k = dictionary.k();
  std::vector<double> hist(static_cast<size_t>(k), 0.0);
  for (social::UserId u : descriptor.users()) {
    const auto c = dictionary.CommunityOf(u);
    if (c.has_value() && *c >= 0 && *c < k) {
      hist[static_cast<size_t>(*c)] += 1.0;
    }
  }
  return hist;
}

std::vector<double> VectorizeByName(const social::UserDictionary& dictionary,
                                    const std::vector<std::string>& names) {
  const int k = dictionary.k();
  std::vector<double> hist(static_cast<size_t>(k), 0.0);
  for (const std::string& name : names) {
    const auto c = dictionary.CommunityOfName(name);
    if (c.has_value() && *c >= 0 && *c < k) {
      hist[static_cast<size_t>(*c)] += 1.0;
    }
  }
  return hist;
}

double ApproxJaccard(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    num += std::min(a[i], b[i]);
    den += std::max(a[i], b[i]);
  }
  for (size_t i = n; i < a.size(); ++i) den += a[i];
  for (size_t i = n; i < b.size(); ++i) den += b[i];
  return den > 0.0 ? num / den : 0.0;
}

std::vector<std::pair<int64_t, double>> Candidates(
    const index::InvertedFile& file, const std::vector<double>& query) {
  std::map<int64_t, double> scores;
  for (size_t c = 0; c < query.size(); ++c) {
    if (query[c] <= 0.0) continue;
    for (const auto& p : file.Postings(static_cast<int>(c))) {
      scores[p.video_id] += query[c] * p.weight;
    }
  }
  std::vector<std::pair<int64_t, double>> out(scores.begin(), scores.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace vrec::reference
