#ifndef VREC_SIGNATURE_PREPARED_POOL_H_
#define VREC_SIGNATURE_PREPARED_POOL_H_

#include <cstddef>
#include <vector>

#include "signature/prepared_signature.h"
#include "util/status.h"

namespace vrec::signature {

/// Structure-of-arrays storage for every prepared signature of a corpus.
/// All values / weights / CDFs live in three flat contiguous arrays, the
/// per-signature moments (mean/min/max) are cached in the per-signature
/// `PreparedView`s, and every mean is repeated in one dense array per slot
/// so the batched centroid bound streams sequential memory. A slot
/// (= record index) resolves to a PreparedSeriesView in O(1) with no
/// allocation.
///
/// Mutation model mirrors the recommender's: Build() happens in Finalize()
/// under exclusive access, Release() tombstones a slot on RemoveVideo, and
/// the pool compacts itself (rebuilding the flat arrays and view pointers)
/// once released bytes exceed the live bytes. Views are only valid between
/// mutations, exactly like every other index mirror in the engine.
class PreparedPool {
 public:
  struct Slot {
    size_t view_offset = 0;  // into views_ / means_ / meta_
    size_t count = 0;        // signatures in this slot (0 = empty/released)
    size_t bytes = 0;        // pooled bytes backing the slot
  };
  struct ViewMeta {
    size_t elem_offset = 0;  // into values_ / weights_ / cdf_
    size_t len = 0;
  };
  /// Flat arrays adopted zero-copy from a snapshot mapping. The pointers
  /// must outlive the pool (the engine pins the mapping); the first
  /// mutation copies them into owned storage via MaterializeOwned().
  struct AdoptedFlats {
    const double* values = nullptr;
    const double* weights = nullptr;
    const double* cdf = nullptr;
    const double* means = nullptr;  // dense means, one per view
    size_t elem_count = 0;          // length of values/weights/cdf
    size_t means_count = 0;         // length of means (must equal #views)
  };

  /// Builds one slot per entry of `series_list`; a null or empty entry
  /// yields an empty slot. Replaces any previous contents.
  void Build(const std::vector<const PreparedSeries*>& series_list);

  /// Restores a pool from snapshot state with the flat arrays borrowed
  /// from a mapping (zero-copy load). `views` carries len + moments; the
  /// element pointers are re-aimed internally. Validates every range
  /// against `flats.elem_count` before any pointer is formed.
  [[nodiscard]] Status RestoreBorrowed(std::vector<Slot> slots,
                                       std::vector<ViewMeta> meta,
                                       std::vector<PreparedView> views,
                                       const AdoptedFlats& flats,
                                       size_t live_bytes, size_t dead_bytes);

  /// As RestoreBorrowed, but the pool owns copies of the flat arrays
  /// (streamed load; no mapping to pin).
  [[nodiscard]] Status RestoreOwned(std::vector<Slot> slots,
                                    std::vector<ViewMeta> meta,
                                    std::vector<PreparedView> views,
                                    std::vector<double> values,
                                    std::vector<double> weights,
                                    std::vector<double> cdf,
                                    std::vector<double> means,
                                    size_t live_bytes, size_t dead_bytes);

  /// Copies borrowed flats into owned storage; no-op when already owned.
  /// Every mutating operation calls this first, so a loaded engine behaves
  /// identically to a never-saved one under RemoveVideo/compaction.
  void MaterializeOwned();

  /// Drops everything (slot_count() becomes 0).
  void Clear();

  /// Tombstones `slot`: its view becomes empty and its bytes count as dead.
  /// Compacts the flat arrays when dead bytes exceed live bytes, so memory
  /// stays bounded by ~2x the live corpus under any removal sequence.
  void Release(size_t slot);

  size_t slot_count() const { return slots_.size(); }

  /// The pooled view of `slot`'s prepared series (empty for released or
  /// originally-empty slots).
  PreparedSeriesView View(size_t slot) const;

  /// Pooled bytes backing `slot`'s views (flat element data + dense means);
  /// what a kernel pass over this slot streams. 0 for empty/released slots.
  size_t BytesOf(size_t slot) const { return slots_[slot].bytes; }

  size_t live_bytes() const { return live_bytes_; }
  size_t dead_bytes() const { return dead_bytes_; }

  /// Snapshot accessors: the structural state a snapshot persists. The
  /// element arrays are exposed as raw pointers because in a loaded pool
  /// they may aim into a read-only mapping rather than the owned vectors.
  const std::vector<Slot>& slots() const { return slots_; }
  const std::vector<ViewMeta>& meta() const { return meta_; }
  const std::vector<PreparedView>& views() const { return views_; }
  size_t element_count() const {
    return ext_values_ != nullptr ? ext_elems_ : values_.size();
  }
  const double* values_data() const {
    return ext_values_ != nullptr ? ext_values_ : values_.data();
  }
  const double* weights_data() const {
    return ext_weights_ != nullptr ? ext_weights_ : weights_.data();
  }
  const double* cdf_data() const {
    return ext_cdf_ != nullptr ? ext_cdf_ : cdf_.data();
  }
  const double* means_data() const {
    return ext_means_ != nullptr ? ext_means_ : means_.data();
  }
  /// True while the flat arrays are borrowed from a snapshot mapping.
  bool borrowed() const { return ext_values_ != nullptr; }

  /// Structural audit: per-slot view ranges in bounds, view pointers aimed
  /// at the flat arrays, means array consistent with the views, byte
  /// accounting consistent.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  // Re-aims every PreparedView pointer at the current flat arrays. Called
  // after any operation that may move them (Build, Compact, Restore*).
  void RebuildViewPointers();
  void Compact();
  // Shared validation + installation for the Restore* entry points.
  [[nodiscard]] Status InstallRestored(std::vector<Slot> slots,
                                       std::vector<ViewMeta> meta,
                                       std::vector<PreparedView> views,
                                       size_t elem_count, size_t means_count,
                                       size_t live_bytes, size_t dead_bytes);

  std::vector<double> values_;
  std::vector<double> weights_;
  std::vector<double> cdf_;
  std::vector<PreparedView> views_;  // moments cached; pointers into flats
  std::vector<double> means_;        // means_[v] == views_[v].mean
  std::vector<ViewMeta> meta_;       // meta_[v] locates views_[v]'s elements
  std::vector<Slot> slots_;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
  // Borrowed (snapshot-mapped) flats; when set, the owned vectors above
  // are empty and all reads go through the *_data() accessors.
  const double* ext_values_ = nullptr;
  const double* ext_weights_ = nullptr;
  const double* ext_cdf_ = nullptr;
  const double* ext_means_ = nullptr;
  size_t ext_elems_ = 0;
};

}  // namespace vrec::signature

#endif  // VREC_SIGNATURE_PREPARED_POOL_H_
