// Component micro-benchmarks (google-benchmark): the ablations DESIGN.md
// calls out. Each benchmark isolates one design choice of the paper's
// system against its alternative:
//   - EMD: closed-form 1D vs general transportation simplex
//   - social relevance: exact Jaccard vs SAR histogram (Eq. 5 vs Eq. 6)
//   - dictionary: chained shift-add-xor table vs sorted array vs
//     std::unordered_map
//   - content candidates: LSB-tree probe vs exhaustive kJ scan
//   - series measures: kJ vs DTW vs ERP

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "hashing/chained_hash_table.h"
#include "index/lsb_index.h"
#include "reference/kernels.h"
#include "signature/emd.h"
#include "signature/sequence_distances.h"
#include "signature/series_measures.h"
#include "social/descriptor.h"
#include "social/sar.h"
#include "util/random.h"

namespace {

using namespace vrec;

signature::CuboidSignature RandomSignature(Rng* rng, int cuboids) {
  signature::CuboidSignature sig;
  double total = 0.0;
  for (int i = 0; i < cuboids; ++i) {
    signature::Cuboid c;
    c.value = rng->Uniform(-100.0, 100.0);
    c.weight = rng->Uniform(0.1, 1.0);
    total += c.weight;
    sig.push_back(c);
  }
  for (auto& c : sig) c.weight /= total;
  return sig;
}

signature::SignatureSeries RandomSeries(Rng* rng, int length, int cuboids) {
  signature::SignatureSeries s;
  for (int i = 0; i < length; ++i) s.push_back(RandomSignature(rng, cuboids));
  return s;
}

void BM_Emd1DClosedForm(benchmark::State& state) {
  Rng rng(1);
  const auto a = RandomSignature(&rng, static_cast<int>(state.range(0)));
  const auto b = RandomSignature(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(signature::EmdExact1D(a, b));
  }
}
BENCHMARK(BM_Emd1DClosedForm)->Arg(4)->Arg(16)->Arg(64);

void BM_EmdTransportSimplex(benchmark::State& state) {
  Rng rng(1);
  const auto a = RandomSignature(&rng, static_cast<int>(state.range(0)));
  const auto b = RandomSignature(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(signature::EmdTransport(a, b));
  }
}
BENCHMARK(BM_EmdTransportSimplex)->Arg(4)->Arg(16);

void BM_ExactJaccard(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<social::UserId> ua, ub;
  for (size_t i = 0; i < n; ++i) {
    ua.push_back(rng.UniformInt(0, 5000));
    ub.push_back(rng.UniformInt(0, 5000));
  }
  const social::SocialDescriptor a(ua), b(ub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(social::ExactJaccard(a, b));
  }
}
BENCHMARK(BM_ExactJaccard)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SarApproxJaccard(benchmark::State& state) {
  Rng rng(3);
  const int k = 60;
  std::vector<double> a(k), b(k);
  for (int i = 0; i < k; ++i) {
    a[static_cast<size_t>(i)] = rng.Uniform(0.0, 20.0);
    b[static_cast<size_t>(i)] = rng.Uniform(0.0, 20.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::ApproxJaccard(a, b));
  }
}
BENCHMARK(BM_SarApproxJaccard);

void BM_DictionaryChainedHash(benchmark::State& state) {
  const auto users = static_cast<size_t>(state.range(0));
  std::vector<int> labels(users);
  for (size_t u = 0; u < users; ++u) labels[u] = static_cast<int>(u % 60);
  social::UserDictionary dict(labels, 60,
                              social::DictionaryLookup::kChainedHash);
  Rng rng(4);
  for (auto _ : state) {
    const auto name = social::UserName(
        rng.UniformInt(0, static_cast<int64_t>(users) - 1));
    benchmark::DoNotOptimize(dict.CommunityOfName(name));
  }
}
BENCHMARK(BM_DictionaryChainedHash)->Arg(1000)->Arg(10000);

void BM_DictionaryLinearScan(benchmark::State& state) {
  const auto users = static_cast<size_t>(state.range(0));
  std::vector<int> labels(users);
  for (size_t u = 0; u < users; ++u) labels[u] = static_cast<int>(u % 60);
  social::UserDictionary dict(labels, 60,
                              social::DictionaryLookup::kLinearScan);
  Rng rng(4);
  for (auto _ : state) {
    const auto name = social::UserName(
        rng.UniformInt(0, static_cast<int64_t>(users) - 1));
    benchmark::DoNotOptimize(dict.CommunityOfName(name));
  }
}
BENCHMARK(BM_DictionaryLinearScan)->Arg(1000)->Arg(10000);

void BM_ExactJaccardByNames(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<std::string> a, b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back(social::UserName(rng.UniformInt(0, 5000)));
    b.push_back(social::UserName(rng.UniformInt(0, 5000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::ExactJaccardByNames(a, b));
  }
}
BENCHMARK(BM_ExactJaccardByNames)->Arg(100)->Arg(1000);

void BM_DictionarySortedArray(benchmark::State& state) {
  const auto users = static_cast<size_t>(state.range(0));
  std::vector<int> labels(users);
  for (size_t u = 0; u < users; ++u) labels[u] = static_cast<int>(u % 60);
  social::UserDictionary dict(labels, 60,
                              social::DictionaryLookup::kSortedArray);
  Rng rng(4);
  for (auto _ : state) {
    const auto name = social::UserName(
        rng.UniformInt(0, static_cast<int64_t>(users) - 1));
    benchmark::DoNotOptimize(dict.CommunityOfName(name));
  }
}
BENCHMARK(BM_DictionarySortedArray)->Arg(1000)->Arg(10000);

void BM_DictionaryStdUnorderedMap(benchmark::State& state) {
  const auto users = static_cast<size_t>(state.range(0));
  std::unordered_map<std::string, int> dict;
  for (size_t u = 0; u < users; ++u) {
    dict[social::UserName(static_cast<social::UserId>(u))] =
        static_cast<int>(u % 60);
  }
  Rng rng(4);
  for (auto _ : state) {
    const auto name = social::UserName(
        rng.UniformInt(0, static_cast<int64_t>(users) - 1));
    benchmark::DoNotOptimize(dict.find(name));
  }
}
BENCHMARK(BM_DictionaryStdUnorderedMap)->Arg(1000)->Arg(10000);

void BM_LsbCandidates(benchmark::State& state) {
  Rng rng(5);
  index::LsbIndex idx;
  const auto videos = static_cast<int>(state.range(0));
  for (int v = 0; v < videos; ++v) {
    idx.AddVideo(v, RandomSeries(&rng, 8, 4));
  }
  const auto query = RandomSeries(&rng, 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.CandidatesForSeries(query, 8));
  }
}
BENCHMARK(BM_LsbCandidates)->Arg(200)->Arg(1000);

void BM_ExhaustiveKappaJScan(benchmark::State& state) {
  Rng rng(5);
  const auto videos = static_cast<size_t>(state.range(0));
  std::vector<signature::SignatureSeries> corpus;
  for (size_t v = 0; v < videos; ++v) corpus.push_back(RandomSeries(&rng, 8, 4));
  const auto query = RandomSeries(&rng, 8, 4);
  for (auto _ : state) {
    double best = 0.0;
    for (const auto& s : corpus) {
      best = std::max(best, signature::KappaJ(query, s));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_ExhaustiveKappaJScan)->Arg(200)->Arg(1000);

void BM_SeriesKappaJ(benchmark::State& state) {
  Rng rng(6);
  const auto a = RandomSeries(&rng, static_cast<int>(state.range(0)), 4);
  const auto b = RandomSeries(&rng, static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signature::KappaJ(a, b));
  }
}
BENCHMARK(BM_SeriesKappaJ)->Arg(8)->Arg(32);

void BM_SeriesDtw(benchmark::State& state) {
  Rng rng(6);
  const auto a = RandomSeries(&rng, static_cast<int>(state.range(0)), 4);
  const auto b = RandomSeries(&rng, static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signature::Dtw(a, b));
  }
}
BENCHMARK(BM_SeriesDtw)->Arg(8)->Arg(32);

void BM_SeriesErp(benchmark::State& state) {
  Rng rng(6);
  const auto a = RandomSeries(&rng, static_cast<int>(state.range(0)), 4);
  const auto b = RandomSeries(&rng, static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signature::Erp(a, b));
  }
}
BENCHMARK(BM_SeriesErp)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
