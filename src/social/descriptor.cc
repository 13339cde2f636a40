#include "social/descriptor.h"

#include <algorithm>

namespace vrec::social {

SocialDescriptor::SocialDescriptor(std::vector<UserId> users)
    : users_(std::move(users)) {
  std::sort(users_.begin(), users_.end());
  users_.erase(std::unique(users_.begin(), users_.end()), users_.end());
}

void SocialDescriptor::Add(UserId user) {
  const auto it = std::lower_bound(users_.begin(), users_.end(), user);
  if (it != users_.end() && *it == user) return;
  users_.insert(it, user);
}

bool SocialDescriptor::Contains(UserId user) const {
  return std::binary_search(users_.begin(), users_.end(), user);
}

double ExactJaccard(const SocialDescriptor& a, const SocialDescriptor& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t intersection = 0;
  size_t i = 0, j = 0;
  const auto& ua = a.users();
  const auto& ub = b.users();
  while (i < ua.size() && j < ub.size()) {
    if (ua[i] < ub[j]) {
      ++i;
    } else if (ub[j] < ua[i]) {
      ++j;
    } else {
      ++intersection;
      ++i;
      ++j;
    }
  }
  const size_t uni = ua.size() + ub.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double JaccardCardinalityBound(size_t size_a, size_t size_b) {
  const size_t lo = std::min(size_a, size_b);
  if (lo == 0) return 0.0;
  const size_t hi = std::max(size_a, size_b);
  return static_cast<double>(lo) / static_cast<double>(hi);
}

std::string UserName(UserId id) { return "user_" + std::to_string(id); }

}  // namespace vrec::social
