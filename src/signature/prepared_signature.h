#ifndef VREC_SIGNATURE_PREPARED_SIGNATURE_H_
#define VREC_SIGNATURE_PREPARED_SIGNATURE_H_

#include <cstddef>
#include <vector>

#include "signature/cuboid_signature.h"
#include "util/arena.h"

namespace vrec::signature {

/// A CuboidSignature flattened for the content-scoring fast path: supports
/// sorted ascending by value, weights aligned with them, the weight prefix
/// sums (the signature's CDF), and the moments the pruning bounds need
/// (mean, min, max) cached once at build time. Preparing costs one sort per
/// signature; afterwards
///   - EMD against any other prepared signature is an allocation-free
///     two-pointer merge over the presorted supports (EmdPrepared), and
///   - the centroid lower bound |mean_a - mean_b| <= EMD is one subtraction
///     (EmdLowerBound / SimCUpperBound).
struct PreparedSignature {
  std::vector<double> values;   // ascending
  std::vector<double> weights;  // weights[i] belongs to values[i]
  std::vector<double> cdf;      // cdf[i] = weights[0] + ... + weights[i]
  double mean = 0.0;            // sum_i values[i] * weights[i]
  double min_value = 0.0;       // values.front() (0 when empty)
  double max_value = 0.0;       // values.back()  (0 when empty)

  bool empty() const { return values.empty(); }
  size_t size() const { return values.size(); }
};

/// The prepared form of a whole signature series.
using PreparedSeries = std::vector<PreparedSignature>;

/// Non-owning view of one prepared signature. The scoring kernels consume
/// views, so one kernel serves both storage layouts: views over an owned
/// PreparedSignature (a query, or the naive KappaJ) and views into a
/// PreparedPool's flat arrays (the recommender's corpus). Where the data
/// lives cannot change what the kernel computes.
struct PreparedView {
  const double* values = nullptr;
  const double* weights = nullptr;
  const double* cdf = nullptr;
  size_t len = 0;
  double mean = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;

  bool empty() const { return len == 0; }
  size_t size() const { return len; }
};

/// Non-owning view of a whole prepared series: `sigs[0..count)` plus the
/// per-signature means repeated in one dense array so the batched centroid
/// bound (util::simd::SimCUpperBoundMany) can stream them.
struct PreparedSeriesView {
  const PreparedView* sigs = nullptr;
  const double* means = nullptr;  // means[i] == sigs[i].mean
  size_t count = 0;

  bool empty() const { return count == 0; }
  size_t size() const { return count; }
  const PreparedView& operator[](size_t i) const { return sigs[i]; }
};

inline PreparedView ViewOf(const PreparedSignature& p) {
  return {p.values.data(), p.weights.data(), p.cdf.data(),
          p.values.size(), p.mean,           p.min_value,
          p.max_value};
}

/// Backing store for a PreparedSeriesView materialized over an owned
/// PreparedSeries. Arena-backed when built with one (per-query scratch);
/// heap-backed with the default constructor.
struct SeriesViewStorage {
  SeriesViewStorage() = default;
  explicit SeriesViewStorage(util::Arena* arena)
      : sigs(util::ArenaAllocator<PreparedView>(arena)),
        means(util::ArenaAllocator<double>(arena)) {}

  util::ArenaVector<PreparedView> sigs;
  util::ArenaVector<double> means;
};

/// Builds a view of `series` in `storage` (cleared and refilled; capacity is
/// reused across calls). The view is valid while `series` and `storage` are.
PreparedSeriesView MakeSeriesView(const PreparedSeries& series,
                                  SeriesViewStorage* storage);

/// Comparison slack used wherever a pruning bound is compared against a
/// threshold or a running k-th best score. The bounds are mathematically
/// exact; the slack absorbs the (<= ~1e-11 for in-domain signatures:
/// |value| <= 255, <= grid_dim^2 cuboids) floating-point divergence between
/// a bound and the quantity it bounds, so pruning never changes results.
inline constexpr double kBoundSlack = 1e-9;

/// Flattens one signature. Stable-sorts by value, so the prepared form is a
/// deterministic function of the input (duplicate values keep their order).
PreparedSignature PrepareSignature(const CuboidSignature& sig);

/// Prepares every signature of a series.
PreparedSeries PrepareSeries(const SignatureSeries& series);

/// Closed-form 1D EMD over prepared signatures: one two-pointer sweep of
/// the signed CDF difference, no allocation, no sorting.
///
/// Precondition: both signatures non-empty (VREC_DCHECK-ed). An empty
/// signature has no mass to transport, so in release builds the defensive
/// answer is +infinity (similarity 0) — never 0 (perfect similarity).
double EmdPrepared(const PreparedSignature& a, const PreparedSignature& b);
double EmdPrepared(const PreparedView& a, const PreparedView& b);

/// SimC = 1 / (1 + EMD) (Equation 3) over prepared signatures.
double SimCPrepared(const PreparedSignature& a, const PreparedSignature& b);
double SimCPrepared(const PreparedView& a, const PreparedView& b);

/// Exact EMD lower bound for equal-mass 1D signatures: the centroid bound
/// |mean_a - mean_b| <= EMD. (Any transport plan moves the mean by exactly
/// mean_b - mean_a, and each unit of mass moved |v_i - u_j| costs at least
/// its signed displacement, so total cost >= |sum of displacements|.)
double EmdLowerBound(const PreparedSignature& a, const PreparedSignature& b);

/// The matching SimC upper bound: SimC <= 1 / (1 + EmdLowerBound), since
/// x -> 1/(1+x) is decreasing. A pair whose upper bound sits below the
/// match threshold can be skipped without computing EMD — it could never
/// have been a matched pair in Equation 4.
double SimCUpperBound(const PreparedSignature& a, const PreparedSignature& b);
double SimCUpperBound(const PreparedView& a, const PreparedView& b);

}  // namespace vrec::signature

#endif  // VREC_SIGNATURE_PREPARED_SIGNATURE_H_
