#include "signature/series_measures.h"

#include <algorithm>

namespace vrec::signature {

double KappaJ(const SignatureSeries& s1, const SignatureSeries& s2,
              const KappaJOptions& options) {
  // Reference path: prepare on the fly, evaluate every pair. Shares the
  // EmdPrepared kernel with the fast path so results match bit for bit.
  return KappaJPrepared(PrepareSeries(s1), PrepareSeries(s2), options,
                        /*prune=*/false);
}

double KappaJPrepared(const PreparedSeriesView& s1,
                      const PreparedSeriesView& s2,
                      const KappaJOptions& options, bool prune,
                      const double* bounds, KappaJScratch* scratch,
                      KappaJStats* stats) {
  if (s1.empty() || s2.empty()) return 0.0;

  KappaJScratch local;
  KappaJScratch& s = scratch != nullptr ? *scratch : local;
  s.pairs.clear();
  // Matched pairs cannot exceed min(|S1|, |S2|); near-duplicate series add
  // little more than noise above the threshold, so |S1| + |S2| is a roomy
  // first-call heuristic. The scratch keeps whatever capacity a query's
  // worst candidate needed, so later growth is rare and amortized. The
  // capacity check makes the hoist explicit: reserve() at-or-below capacity
  // is a guaranteed no-op, but it is still a non-inlined libstdc++ call on
  // the per-candidate path — skipping it shaved ~1% off refine in the
  // KernelMicrobench, and it keeps an arena-backed scratch from ever
  // touching the allocator after the first candidate.
  const size_t want = std::min(s1.count * s2.count, s1.count + s2.count);
  if (s.pairs.capacity() < want) s.pairs.reserve(want);

  const double prune_below = options.match_threshold - kBoundSlack;
  for (size_t i = 0; i < s1.count; ++i) {
    const double* bound_row =
        bounds != nullptr ? bounds + i * s2.count : nullptr;
    for (size_t j = 0; j < s2.count; ++j) {
      if (prune) {
        const double ub = bound_row != nullptr
                              ? bound_row[j]
                              : SimCUpperBound(s1[i], s2[j]);
        if (ub < prune_below) {
          if (stats != nullptr) ++stats->pairs_pruned;
          continue;
        }
      }
      if (stats != nullptr) ++stats->emd_calls;
      const double sim = SimCPrepared(s1[i], s2[j]);
      if (sim >= options.match_threshold) {
        s.pairs.push_back(
            {sim, static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
      }
    }
  }
  std::sort(s.pairs.begin(), s.pairs.end(),
            [](const KappaJScratch::Pair& a, const KappaJScratch::Pair& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });

  s.used1.assign(s1.count, 0);
  s.used2.assign(s2.count, 0);
  double total_sim = 0.0;
  size_t matched = 0;
  for (const KappaJScratch::Pair& c : s.pairs) {
    if (s.used1[c.i] || s.used2[c.j]) continue;
    s.used1[c.i] = 1;
    s.used2[c.j] = 1;
    total_sim += c.sim;
    ++matched;
  }

  const double union_size =
      static_cast<double>(s1.count + s2.count - matched);
  return total_sim / union_size;
}

double KappaJPrepared(const PreparedSeries& s1, const PreparedSeries& s2,
                      const KappaJOptions& options, bool prune,
                      KappaJScratch* scratch, KappaJStats* stats) {
  SeriesViewStorage st1;
  SeriesViewStorage st2;
  return KappaJPrepared(MakeSeriesView(s1, &st1), MakeSeriesView(s2, &st2),
                        options, prune, /*bounds=*/nullptr, scratch,
                        stats);
}

double KappaJUpperBound(const PreparedSeriesView& s1,
                        const PreparedSeriesView& s2,
                        const KappaJOptions& options, const double* bounds,
                        KappaJScratch* scratch) {
  if (s1.empty() || s2.empty()) return 0.0;

  KappaJScratch local;
  KappaJScratch& s = scratch != nullptr ? *scratch : local;
  s.col_max.assign(s2.count, 0.0);

  // A row (column) whose best centroid bound cannot reach the threshold can
  // never host a matched pair; kBoundSlack keeps the cut conservative.
  const double reachable = options.match_threshold - kBoundSlack;
  double row_sum = 0.0;
  size_t row_cnt = 0;
  for (size_t i = 0; i < s1.count; ++i) {
    const double* bound_row =
        bounds != nullptr ? bounds + i * s2.count : nullptr;
    double best = 0.0;
    for (size_t j = 0; j < s2.count; ++j) {
      const double ub = bound_row != nullptr ? bound_row[j]
                                             : SimCUpperBound(s1[i], s2[j]);
      if (ub > best) best = ub;
      if (ub > s.col_max[j]) s.col_max[j] = ub;
    }
    if (best >= reachable) {
      row_sum += best;
      ++row_cnt;
    }
  }
  double col_sum = 0.0;
  size_t col_cnt = 0;
  for (size_t j = 0; j < s2.count; ++j) {
    if (s.col_max[j] >= reachable) {
      col_sum += s.col_max[j];
      ++col_cnt;
    }
  }

  // Matched-pair sum <= sum of per-row maxima over matchable rows (each
  // matched pair sits in a distinct row), and symmetrically for columns;
  // matched count <= matchable rows (resp. columns). Take the tighter side
  // of each: kJ <= min(row_sum, col_sum) / (|S1| + |S2| - min counts).
  const double numerator = std::min(row_sum, col_sum);
  if (numerator <= 0.0) return 0.0;
  const size_t matched_ub = std::min(row_cnt, col_cnt);
  const double union_lb =
      static_cast<double>(s1.count + s2.count - matched_ub);
  return numerator / union_lb;
}

double KappaJUpperBound(const PreparedSeries& s1, const PreparedSeries& s2,
                        const KappaJOptions& options,
                        KappaJScratch* scratch) {
  SeriesViewStorage st1;
  SeriesViewStorage st2;
  return KappaJUpperBound(MakeSeriesView(s1, &st1), MakeSeriesView(s2, &st2),
                          options, /*bounds=*/nullptr, scratch);
}

}  // namespace vrec::signature
