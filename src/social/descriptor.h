#ifndef VREC_SOCIAL_DESCRIPTOR_H_
#define VREC_SOCIAL_DESCRIPTOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vrec::social {

/// Dense user identifier within a community dataset.
using UserId = int64_t;

/// The social descriptor of a video (Section 4.2.1): the set of user ids of
/// its owner and every user who commented on it, kept sorted and deduped.
class SocialDescriptor {
 public:
  SocialDescriptor() = default;
  /// Builds from an arbitrary id list (sorted and deduped internally).
  explicit SocialDescriptor(std::vector<UserId> users);

  /// Adds a user; no-op if already present.
  void Add(UserId user);

  bool Contains(UserId user) const;
  size_t size() const { return users_.size(); }
  bool empty() const { return users_.empty(); }
  const std::vector<UserId>& users() const { return users_; }

  bool operator==(const SocialDescriptor& other) const = default;

 private:
  std::vector<UserId> users_;  // sorted, unique
};

/// Exact social relevance (Equation 5): Jaccard coefficient of the two user
/// sets, |Dv n Dq| / |Dv u Dq|. Returns 0 when both are empty. This is the
/// efficient sorted-set implementation.
double ExactJaccard(const SocialDescriptor& a, const SocialDescriptor& b);

/// Upper bound on the Jaccard coefficient from set cardinalities alone:
/// |A ∩ B| ≤ min(|A|,|B|) and |A ∪ B| ≥ max(|A|,|B|), so
/// J(A,B) ≤ min(|A|,|B|) / max(|A|,|B|). Returns 0 when either set is
/// empty (J is then 0 by convention). Because IEEE division is monotone and
/// the operands are integers, the computed bound dominates the computed
/// ExactJaccard value in floating point too, never just in the reals —
/// which is what lets the recommender's social fast path skip dominated
/// merge-intersections without changing any result.
double JaccardCardinalityBound(size_t size_a, size_t size_b);

/// Canonical display name of a user id; the datasets name users this way and
/// the chained hash table keys on these strings (the paper hashes "social
/// user names").
std::string UserName(UserId id);

}  // namespace vrec::social

#endif  // VREC_SOCIAL_DESCRIPTOR_H_
