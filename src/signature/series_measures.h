#ifndef VREC_SIGNATURE_SERIES_MEASURES_H_
#define VREC_SIGNATURE_SERIES_MEASURES_H_

#include <cstddef>
#include <cstdint>

#include "signature/cuboid_signature.h"
#include "signature/prepared_signature.h"
#include "util/arena.h"

namespace vrec::signature {

/// Options for the extended-Jaccard series similarity.
struct KappaJOptions {
  /// Minimum SimC for a signature pair to count as matched. Pairs below the
  /// threshold contribute nothing (they are "unmatched" segments).
  double match_threshold = 0.25;
};

/// Prune/observability counters of one or more KappaJPrepared evaluations.
struct KappaJStats {
  size_t emd_calls = 0;     // exact EMD kernel evaluations performed
  size_t pairs_pruned = 0;  // pairs skipped by the centroid SimC bound
};

/// Reusable buffers for KappaJPrepared / KappaJUpperBound. One scratch per
/// query amortizes every allocation across all candidates: the first few
/// candidates grow the buffers, the rest run allocation-free. Constructed
/// over an arena (the recommender's per-query scratch) the buffers
/// bump-allocate from per-thread memory reclaimed wholesale at query end;
/// with a null arena they live on the heap — either way the same
/// containers and code paths.
struct KappaJScratch {
  struct Pair {
    double sim;
    uint32_t i;
    uint32_t j;
  };

  explicit KappaJScratch(util::Arena* arena = nullptr)
      : pairs(util::ArenaAllocator<Pair>(arena)),
        used1(util::ArenaAllocator<char>(arena)),
        used2(util::ArenaAllocator<char>(arena)),
        col_max(util::ArenaAllocator<double>(arena)) {}

  util::ArenaVector<Pair> pairs;    // above-threshold pairs, then sorted
  util::ArenaVector<char> used1;    // greedy-matching flags for s1 / s2
  util::ArenaVector<char> used2;
  util::ArenaVector<double> col_max;  // per-column bound (KappaJUpperBound)
};

/// Extended Jaccard similarity between two signature series (Equation 4):
///
///   kJ(S1, S2) = sum_{matched (Ci, Cj)} SimC(Ci, Cj) / |S1 U S2|
///
/// Matching is one-to-one and greedy on descending SimC — each signature of
/// S1 pairs with at most one signature of S2 and vice versa, and only pairs
/// with SimC >= match_threshold count. |S1 U S2| is the set-union size
/// |S1| + |S2| - #matched, so fully-matched identical series score 1.
/// Segment order is deliberately ignored (the paper's robustness argument
/// for kJ vs. DTW/ERP under sequence-level re-editing).
///
/// This entry point is the naive reference: it prepares both series and
/// evaluates every pair (no pruning). Hot paths prepare once and call
/// KappaJPrepared, which is bit-for-bit identical.
double KappaJ(const SignatureSeries& s1, const SignatureSeries& s2,
              const KappaJOptions& options = {});

/// The fast-path form of Equation 4 over prepared series views.
///
/// With `prune` on, any pair whose centroid SimC upper bound
/// (SimCUpperBound) sits below match_threshold - kBoundSlack is skipped
/// without evaluating EMD. Exact: such a pair's true SimC is below the
/// threshold, so the naive path would have discarded it anyway — the
/// surviving pair set, and therefore the result, is bit-for-bit identical
/// with pruning on or off.
///
/// `bounds` (optional) is a row-major s1.count x s2.count matrix of
/// precomputed SimCUpperBound values (bounds[i * s2.count + j] for the pair
/// (s1[i], s2[j]), e.g. filled once per candidate with
/// util::simd::SimCUpperBoundMany and shared with KappaJUpperBound). The
/// batched kernel applies the identical elementwise arithmetic, so reading
/// the matrix instead of recomputing each bound cannot change any prune
/// decision. Null recomputes bounds inline per pair.
///
/// `scratch` (optional) supplies reusable buffers; `stats` (optional)
/// accumulates EMD-call and prune counters across calls.
double KappaJPrepared(const PreparedSeriesView& s1,
                      const PreparedSeriesView& s2,
                      const KappaJOptions& options = {},
                      bool prune = true,
                      const double* bounds = nullptr,
                      KappaJScratch* scratch = nullptr,
                      KappaJStats* stats = nullptr);

/// Convenience overload over owned prepared series (materializes views
/// internally; the recommender's hot path builds views once and calls the
/// form above).
double KappaJPrepared(const PreparedSeries& s1, const PreparedSeries& s2,
                      const KappaJOptions& options = {},
                      bool prune = true,
                      KappaJScratch* scratch = nullptr,
                      KappaJStats* stats = nullptr);

/// Cheap upper bound on KappaJPrepared(s1, s2, options), from per-pair
/// centroid SimC bounds only (no EMD evaluation): the matched-pair sum is
/// bounded by the per-row (and per-column) maxima of the bound matrix
/// restricted to rows/columns that could reach the threshold, and the union
/// size from below by |S1| + |S2| - #rows (resp. columns) that could match.
/// Costs O(|S1| * |S2|) subtractions. Used by the recommender's top-K
/// refinement to skip whole candidates. `bounds` as in KappaJPrepared; the
/// row/column maxima reductions always run scalar in (i, j) order, matrix
/// or not, so the results are bit-identical either way.
double KappaJUpperBound(const PreparedSeriesView& s1,
                        const PreparedSeriesView& s2,
                        const KappaJOptions& options = {},
                        const double* bounds = nullptr,
                        KappaJScratch* scratch = nullptr);

/// Convenience overload over owned prepared series.
double KappaJUpperBound(const PreparedSeries& s1, const PreparedSeries& s2,
                        const KappaJOptions& options = {},
                        KappaJScratch* scratch = nullptr);

}  // namespace vrec::signature

#endif  // VREC_SIGNATURE_SERIES_MEASURES_H_
