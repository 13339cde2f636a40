#ifndef VREC_BENCH_BENCH_ORACLE_H_
#define VREC_BENCH_BENCH_ORACLE_H_

// The naive side of the scoring benches: the reference oracle
// (tests/reference) built over exactly the series and descriptors an
// engine ingested, plus the bit-for-bit result comparison.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/recommender.h"
#include "datagen/dataset.h"
#include "reference/oracle.h"

namespace vrec::bench {

inline std::unique_ptr<reference::Oracle> BuildOracle(
    const datagen::Dataset& dataset, const core::Recommender& engine) {
  auto oracle = std::make_unique<reference::Oracle>(engine.options());
  for (size_t v = 0; v < dataset.video_count(); ++v) {
    const auto id = static_cast<video::VideoId>(v);
    const Status status = oracle->AddVideoRecord(id, *engine.SeriesOf(id),
                                                 *engine.DescriptorOf(id));
    if (!status.ok()) {
      std::fprintf(stderr, "oracle ingest failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
  const Status status = oracle->Finalize(dataset.community.user_count);
  if (!status.ok()) {
    std::fprintf(stderr, "oracle finalize failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  return oracle;
}

/// Bitwise, not approximate: the engine's fast paths are exact by
/// construction.
inline bool Identical(
    const std::vector<std::vector<core::ScoredVideo>>& a,
    const std::vector<std::vector<core::ScoredVideo>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      const core::ScoredVideo& x = a[q][i];
      const core::ScoredVideo& y = b[q][i];
      if (x.id != y.id || x.score != y.score || x.content != y.content ||
          x.social != y.social) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace vrec::bench

#endif  // VREC_BENCH_BENCH_ORACLE_H_
