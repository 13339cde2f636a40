#ifndef VREC_SOCIAL_HISTOGRAM_POOL_H_
#define VREC_SOCIAL_HISTOGRAM_POOL_H_

#include <cstddef>
#include <vector>

#include "social/sar.h"
#include "util/status.h"

namespace vrec::social {

/// Structure-of-arrays scoring mirror for the per-record SparseHistograms:
/// every histogram's bins and weights live in two flat parallel arrays; a
/// slot (= record index) resolves to a SparseHistogramView in O(1). Unlike PreparedPool this is a mirror, not
/// the owner — `Record::social_vector` stays authoritative because the
/// mutation paths (RefreshVideoVector, ApplySocialUpdate) rebuild it —
/// so the pool supports in-place slot updates: an update appends the new
/// histogram at the tail and tombstones the old range, and the pool
/// compacts once dead bytes exceed live bytes.
class HistogramPool {
 public:
  struct Slot {
    size_t offset = 0;
    size_t len = 0;
    double sum = 0.0;
  };
  /// Flat arrays adopted zero-copy from a snapshot mapping; the pointers
  /// must outlive the pool (the engine pins the mapping). The first
  /// mutation copies them into owned storage via MaterializeOwned().
  struct AdoptedFlats {
    const int* bins = nullptr;
    const double* weights = nullptr;
    size_t len = 0;
  };

  /// Builds one slot per entry of `histograms`; a null or empty entry
  /// yields an empty slot. Replaces any previous contents.
  void Build(const std::vector<const SparseHistogram*>& histograms);

  void Clear();

  /// Restores a pool from snapshot state with the flat arrays borrowed
  /// from a mapping (zero-copy load). Validates slot ranges against
  /// `flats.len` before installing anything.
  [[nodiscard]] Status RestoreBorrowed(std::vector<Slot> slots,
                                       const AdoptedFlats& flats,
                                       size_t live_bytes, size_t dead_bytes);

  /// As RestoreBorrowed, but with owned copies (streamed load).
  [[nodiscard]] Status RestoreOwned(std::vector<Slot> slots,
                                    std::vector<int> bins,
                                    std::vector<double> weights,
                                    size_t live_bytes, size_t dead_bytes);

  /// Copies borrowed flats into owned storage; no-op when already owned.
  void MaterializeOwned();

  /// Replaces `slot`'s histogram (empty histogram = pure release).
  void Update(size_t slot, const SparseHistogram& histogram);

  /// Tombstones `slot` (RemoveVideo).
  void Release(size_t slot);

  size_t slot_count() const { return slots_.size(); }

  SparseHistogramView View(size_t slot) const {
    const Slot& s = slots_[slot];
    return {bins_data() + s.offset, weights_data() + s.offset, s.len, s.sum};
  }

  /// Cached total weight of `slot`'s histogram (== View(slot).sum); the
  /// posting-driven SAR score needs only this.
  double SumOf(size_t slot) const { return slots_[slot].sum; }

  /// Pooled bytes backing `slot`'s view — what the merge kernel streams.
  size_t BytesOf(size_t slot) const {
    return slots_[slot].len * (sizeof(int) + sizeof(double));
  }

  size_t live_bytes() const { return live_bytes_; }
  size_t dead_bytes() const { return dead_bytes_; }

  /// Snapshot accessors.
  const std::vector<Slot>& slots() const { return slots_; }
  size_t flat_len() const {
    return ext_bins_ != nullptr ? ext_len_ : bins_.size();
  }
  const int* bins_data() const {
    return ext_bins_ != nullptr ? ext_bins_ : bins_.data();
  }
  const double* weights_data() const {
    return ext_weights_ != nullptr ? ext_weights_ : weights_.data();
  }
  /// True while the flat arrays are borrowed from a snapshot mapping.
  bool borrowed() const { return ext_bins_ != nullptr; }

  /// Structural audit: slot ranges in bounds and non-overlapping counts,
  /// bins strictly sorted with positive weights, cached sums exact, byte
  /// accounting consistent.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  void Append(Slot* slot, const SparseHistogram& histogram);
  void Compact();
  [[nodiscard]] Status ValidateRestored(const std::vector<Slot>& slots,
                                        size_t flat_len,
                                        size_t live_bytes) const;

  std::vector<int> bins_;
  std::vector<double> weights_;
  std::vector<Slot> slots_;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
  // Borrowed (snapshot-mapped) flats; when set, the owned vectors above
  // are empty and all reads go through the *_data() accessors.
  const int* ext_bins_ = nullptr;
  const double* ext_weights_ = nullptr;
  size_t ext_len_ = 0;
};

}  // namespace vrec::social

#endif  // VREC_SOCIAL_HISTOGRAM_POOL_H_
