#ifndef VREC_SOCIAL_SAR_H_
#define VREC_SOCIAL_SAR_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hashing/chained_hash_table.h"
#include "social/descriptor.h"
#include "util/arena.h"
#include "util/status.h"

namespace vrec::social {

/// Sparse SAR histogram: the non-zero bins of a descriptor's k-dimensional
/// user histogram as strictly bin-sorted (bin, weight) pairs, plus the
/// cached total weight. A descriptor touches only as many bins as it has
/// users, so queries and records carry O(nnz) state instead of O(k).
///
/// Invariants: bins strictly ascending, every weight > 0, and `sum` equals
/// the exact sum of the weights. Weights are whole user counts, which is
/// what makes the sparse arithmetic below bit-for-bit equal to a dense
/// k-bin sweep (integer sums commute exactly in double).
struct SparseHistogram {
  std::vector<std::pair<int, double>> bins;
  double sum = 0.0;

  bool empty() const { return bins.empty(); }
  size_t nnz() const { return bins.size(); }
  void clear() {
    bins.clear();
    sum = 0.0;
  }
  bool operator==(const SparseHistogram& other) const = default;
};

/// Non-owning structure-of-arrays view of a sparse histogram: the bins and
/// weights as two parallel flat arrays (as a HistogramPool stores them)
/// plus the cached sum. The merge kernel consumes either representation
/// through the same template core, so where the (bin, weight) pairs live —
/// per-record vector-of-pairs or pooled flat arrays — cannot change the
/// computed score.
struct SparseHistogramView {
  const int* bins = nullptr;
  const double* weights = nullptr;
  size_t len = 0;
  double sum = 0.0;

  bool empty() const { return len == 0; }
  size_t nnz() const { return len; }
};

/// Structural audit of the SparseHistogram invariants (sorted bins, positive
/// weights, consistent cached sum, bins within [0, k) when k >= 0).
[[nodiscard]]
Status CheckSparseHistogram(const SparseHistogram& histogram, int k = -1);

/// How the user dictionary resolves a user name to its sub-community id.
enum class DictionaryLookup {
  /// Linear scan over the (name, cno) entries — the plain SAR scheme as the
  /// paper frames it: without the hash optimization, mapping a user name to
  /// its sub-community costs a dictionary scan. Figure 12(a)'s CSF-SAR
  /// curve is measured against this.
  kLinearScan,
  /// Binary search over the sorted (name, cno) array — an additional
  /// engineering alternative, between the scan and the hash.
  kSortedArray,
  /// The paper's chained hash table with shift-add-xor hashing — SAR-H.
  kChainedHash,
};

/// The SAR user dictionary (Section 4.2.2, "Social Descriptor
/// Vectorization"): maps every social user to its sub-community number so a
/// descriptor of n user ids can be folded into a k-bin histogram.
class UserDictionary {
 public:
  /// Builds the dictionary from per-user sub-community labels (label index =
  /// user id). `k` is the number of sub-communities (vector dimensionality).
  UserDictionary(const std::vector<int>& labels, int k,
                 DictionaryLookup lookup);

  /// Snapshot-restore form: as above, but pins the chained-hash bucket
  /// count instead of deriving it from labels.size(). A saved engine's
  /// table keeps its finalize-time geometry even after users were added by
  /// social updates, so a bit-identical restore must carry it explicitly.
  UserDictionary(const std::vector<int>& labels, int k,
                 DictionaryLookup lookup, size_t hash_buckets);

  int k() const { return k_; }
  DictionaryLookup lookup() const { return lookup_; }
  size_t user_count() const { return user_count_; }

  /// Sub-community of a user (by name, as the paper's hash table is keyed);
  /// nullopt for unknown users.
  std::optional<int> CommunityOfName(const std::string& name) const;

  /// Sub-community of a user id; nullopt if out of range.
  std::optional<int> CommunityOf(UserId user) const;

  /// Re-assigns one user (new users may be added with id == user_count()).
  void Assign(UserId user, int community);

  /// Renames community `from` to `to` everywhere (merge support).
  void ReplaceCommunity(int from, int to);

  /// Converts a social descriptor into its k-bin user histogram by
  /// dictionary lookup: bin i counts the descriptor's users that fall in
  /// sub-community i. Unknown users are skipped. The result lists only the
  /// touched bins (strictly sorted) with the weight sum cached.
  SparseHistogram VectorizeSparse(const SocialDescriptor& descriptor) const;

  /// Scratch-free form for batch vectorization loops: `out` is overwritten
  /// and the per-user bin buffer bump-allocates from `arena` (null falls
  /// back to the heap). Replaces the old caller-threaded scratch-vector
  /// overload: a tight loop passes its thread's arena and performs no
  /// steady-state allocation.
  void VectorizeSparse(const SocialDescriptor& descriptor,
                       SparseHistogram* out, util::Arena* arena) const;

  /// Like VectorizeSparse but resolves through user *names*, exercising the
  /// exact lookup path (binary search or chained hash) whose cost Figure
  /// 12(a) measures.
  SparseHistogram VectorizeByNameSparse(
      const std::vector<std::string>& names) const;

  /// Total string comparisons performed by hash lookups (SAR-H cost model).
  uint64_t hash_comparisons() const { return hash_table_.comparisons(); }

  /// Snapshot accessors: the persisted state (labels + k + lookup mode +
  /// bucket geometry) from which the lookup structures rebuild exactly.
  const std::vector<int>& labels() const { return label_of_user_; }
  size_t hash_bucket_count() const { return hash_table_.bucket_count(); }

  /// Audits the dictionary: the lookup structure of the configured mode
  /// (linear/sorted entries or chained hash table, including its own
  /// structural invariants) holds exactly one entry per user whose
  /// sub-community agrees with the label array, and every label lies in
  /// [0, k).
  [[nodiscard]]
  Status CheckInvariants() const;

 private:
  void RebuildLookupStructures();

  int k_;
  DictionaryLookup lookup_;
  size_t user_count_;
  std::vector<int> label_of_user_;  // user id -> community
  /// (name, cno) entries; sorted only under kSortedArray.
  std::vector<std::pair<std::string, int>> entries_;
  hashing::ChainedHashTable hash_table_;  // for kChainedHash
};

/// Approximate social relevance (Equation 6) over sparse histograms:
///   sJ~ = Σ_i min(dQ_i, dV_i) / Σ_i max(dQ_i, dV_i),
/// as a two-pointer merge over the non-zero bins computing Σmin, with the
/// denominator derived as `a.sum + b.sum − Σmin` (valid because all weights
/// are non-negative, so Σmax = Σa + Σb − Σmin). O(nnz_a + nnz_b) instead of
/// O(k), and bit-for-bit equal to the dense sweep for whole-number weights:
/// the Σmin terms are the identical doubles in the identical order, and
/// integer-valued sums below 2^53 are exact under either association.
/// Returns 0 when both histograms are empty.
double ApproxJaccardSparse(const SparseHistogram& a, const SparseHistogram& b);

/// View form of the sparse merge (histograms stored in a HistogramPool):
/// identical comparisons and additions in identical order via one shared
/// template core, so the result is bit-for-bit the pair overload's.
double ApproxJaccardSparse(const SparseHistogram& a,
                           const SparseHistogramView& b);

}  // namespace vrec::social

#endif  // VREC_SOCIAL_SAR_H_
