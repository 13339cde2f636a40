#ifndef VREC_CSFBENCH_COMMON_H_
#define VREC_CSFBENCH_COMMON_H_

// Shared plumbing of the csf_bench workloads: command-line arguments, the
// report printed as the last stdout line, the in-memory span/counter
// tracer, the per-round statistic, and the generated-input recipe.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/dataset.h"

namespace vrec::csfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

/// When the process started (static initialization, before main).
Clock::time_point ProcessStart();

struct Args {
  std::string workload;
  /// Draws the operations: query ids, request lists, removals.
  uint64_t seed = 1;
  /// Draws the generated corpus and community. Fixed by default so that
  /// runs on different seeds measure the same corpus; pass another value
  /// to check a change on a different corpus.
  uint64_t corpus_seed = 20150531;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots and the trace file.
  std::string out_dir = ".bench_out";
};

/// Time metrics are taken from repeated rounds of the same operations.
/// Where a figure is one value per round (a restore, serve_zipf's round
/// means), the reported figure is this quantile of the values: 0, the
/// fastest. It keeps what ran while the machine was quick; README.md
/// records how it was chosen. Per-operation figures use BestTimes.
inline constexpr double kRoundQuantile = 0.0;

/// Snapshot restores per round. Only the last restored engine serves the
/// round; the extra restores give restore_ms more samples per run.
inline constexpr int kRestoresPerRound = 3;

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Each operation's fastest time over the run's rounds, kept by the
/// operation's position in the round. The single-threaded workloads report
/// sums and means of these rather than the fastest round: a round lasts
/// a second or more, longer than the quick spells of a shared host, while
/// one operation of a few milliseconds meets such a spell in some round.
class BestTimes {
 public:
  void Add(size_t position, double ms) {
    if (position >= best_.size()) best_.resize(position + 1, ms);
    best_[position] = std::min(best_[position], ms);
  }
  double Sum() const {
    double sum = 0.0;
    for (double ms : best_) sum += ms;
    return sum;
  }
  /// 0 when no operation was timed.
  double Mean() const {
    return best_.empty() ? 0.0 : Sum() / static_cast<double>(best_.size());
  }

 private:
  std::vector<double> best_;
};

/// One workload's result: the correctness verdict, operation counts and
/// named metrics, printed by main() as a single JSON line.
class Report {
 public:
  /// Records a failed output check (printed to stderr); never aborts, so
  /// every check of the workload still runs.
  void Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; `ok` false counts it as failed.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  bool correct() const { return check_failures_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t checks() const { return checks_; }
  std::string Json() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
  uint64_t check_failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// In-memory span recorder. Spans are buffered per thread and written out
/// once, at the end of the run, as Chrome trace events. When disabled, Span
/// objects cost one branch. Toggle it only while no other thread records.
class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into the same thread's buffer, -1 for roots
    uint32_t request;
    uint32_t thread;
  };

  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Writes every span as a Chrome trace event file; call it after every
  /// thread that recorded spans has been joined.
  bool Write(const std::string& path) const;

 private:
  friend class Span;
  struct Buffer {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    int32_t open = -1;  // innermost open span
  };
  Buffer* ThisThread();

  bool enabled_ = false;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// RAII span around one call into a module. `request` groups the spans of
/// one request (0 when not request-scoped).
class Span {
 public:
  explicit Span(const char* name, uint32_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  int32_t index_ = -1;
  int32_t saved_open_ = -1;
};

/// Restores a snapshot kRestoresPerRound times through `load` (returning a
/// StatusOr of an engine pointer), freeing the previous engine before each
/// timed call. Each call's time goes to `samples` and `total_ms`, and
/// counts as one operation. Returns the last result; stops at a failure,
/// which it records as a failed check.
template <typename Load>
auto RestoreRepeatedly(const char* span_name, const Load& load,
                       std::vector<double>* samples, double* total_ms,
                       Report* report) {
  decltype(load()) restored = Status::Internal("not loaded");
  for (int k = 0; k < kRestoresPerRound; ++k) {
    restored = Status::Internal("not loaded");
    const auto start = Clock::now();
    {
      Span span(span_name);
      restored = load();
    }
    const double ms = MillisSince(start);
    *total_ms += ms;
    samples->push_back(ms);
    report->Op(restored.ok());
    if (!restored.ok()) {
      report->Check(false, std::string(span_name) + ": " +
                               restored.status().ToString());
      break;
    }
  }
  return restored;
}

/// Removes a snapshot file or directory when the workload returns, also
/// when it stops early.
class ScopedPath {
 public:
  explicit ScopedPath(std::string path) : path_(std::move(path)) {}
  ~ScopedPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedPath(const ScopedPath&) = delete;
  ScopedPath& operator=(const ScopedPath&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Peak resident set (MB) since process start, and the current one.
double PeakRssMb();
double CurrentRssMb();

/// The generated-input recipe shared by all workloads: the repository's
/// effectiveness dataset (20 topics, 32-frame 32x32 videos with one edited
/// re-upload per original, 600 users in 60 interest groups, 16 months of
/// comments with the first 12 as the source period), scaled to
/// `num_videos` and seeded from the run's seed.
datagen::DatasetOptions InputOptions(int num_videos, uint64_t seed);

/// SplitMix64 step: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t x);

/// Output checks every ranked list must pass: exactly `k` entries, no
/// duplicate ids, the query itself absent, and ordered by (score desc,
/// id asc).
void CheckRanking(Report* report, video::VideoId query,
                  const std::vector<core::ScoredVideo>& list, size_t k,
                  const char* what);

/// Bit-for-bit equality of two result lists (ids and all three scores).
bool SameResults(const std::vector<core::ScoredVideo>& a,
                 const std::vector<core::ScoredVideo>& b);

/// The paper's average rating AR (Eq. 10a) at cutoff 10, from
/// eval::RatingOracle over (query, ranked list) pairs.
double AverageRatingAt10(
    const datagen::Dataset& dataset,
    const std::vector<std::pair<video::VideoId,
                                std::vector<core::ScoredVideo>>>& lists);

/// The end-to-end metrics every workload reports (see README.md for what
/// each one measures on each workload).
struct EndToEnd {
  double setup_s = 0.0;
  double query_ms = 0.0;
  double round_ms = 0.0;
  double restore_ms = 0.0;
  double snapshot_mb = 0.0;
  double rating_at_10 = 0.0;
};

/// One per-layer figure and its unit.
struct Layer {
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer figures of a traced run, by name. The declared list is
/// "per_layer" in BENCHMARK.json: run.py checks every name and unit printed
/// here against it and reports the declared layers a workload does not
/// reach as 0.
using Layers = std::map<std::string, Layer>;

/// Fills io.section.<name>_bytes from the snapshot's section table
/// (io::InspectSnapshot), summed over `paths`.
void AddSnapshotSections(const std::vector<std::string>& paths,
                         Layers* layers);

/// Emits the end-to-end metrics (untraced run) or the per-layer ones
/// (traced run) into the report.
void EmitMetrics(const Args& args, const EndToEnd& e2e, const Layers& layers,
                 Report* report);

/// Records an operation that stopped the workload: one failed operation and
/// one failed check naming it. Returns 1, the workload's exit code.
int Fail(Report* report, const std::string& what, const Status& status);

/// The end of the cold set-up every workload starts with: AddVideo for each
/// generated video and Finalize, on `engine` (a core::Recommender or a
/// shard::ShardedRecommender), then `save()`, which writes the snapshot
/// files `files` the timed rounds restore from. setup_s runs from the
/// process's start to the saved snapshot, so it includes generating the
/// inputs; datagen.generate_s, video.ingest_s, core.finalize_s and
/// io.save_ms split it. The file sizes give snapshot_mb,
/// mem.bytes_per_video and the section table. Returns false, with the
/// failure recorded, when a call fails.
template <typename Engine, typename Save>
bool BuildAndSave(Engine* engine, const datagen::Dataset& dataset,
                  const Save& save, const std::vector<std::string>& files,
                  Layers* layers, EndToEnd* e2e, Report* report) {
  const auto descriptors = dataset.SourceDescriptors();
  const size_t n = dataset.video_count();
  const auto setup_start = Clock::now();
  (*layers)["datagen.generate_s"] = {
      std::chrono::duration<double>(setup_start - ProcessStart()).count(),
      "s"};
  {
    Span span("video.ingest");
    for (size_t v = 0; v < n; ++v) {
      const Status s = engine->AddVideo(dataset.corpus.videos[v],
                                        descriptors[v]);
      if (!s.ok()) {
        Fail(report, "AddVideo", s);
        return false;
      }
    }
  }
  (*layers)["video.ingest_s"] = {SecondsSince(setup_start), "s"};
  const auto finalize_start = Clock::now();
  {
    Span span("core.finalize");
    const Status s = engine->Finalize(dataset.community.user_count);
    if (!s.ok()) {
      Fail(report, "Finalize", s);
      return false;
    }
  }
  (*layers)["core.finalize_s"] = {SecondsSince(finalize_start), "s"};

  const auto save_start = Clock::now();
  {
    Span span("io.save");
    const Status s = save();
    if (!s.ok()) {
      Fail(report, "save snapshot", s);
      return false;
    }
  }
  (*layers)["io.save_ms"] = {MillisSince(save_start), "ms"};
  e2e->setup_s = SecondsSince(ProcessStart());
  double bytes = 0.0;
  for (const std::string& file : files) {
    bytes += static_cast<double>(std::filesystem::file_size(file));
  }
  e2e->snapshot_mb = bytes / 1e6;
  (*layers)["mem.bytes_per_video"] = {bytes / static_cast<double>(n), "B"};
  AddSnapshotSections(files, layers);
  return true;
}

/// AR@10 of `engine` over the paper's query videos (the fixed protocol of
/// Eq. 10a); each query must succeed and pass the ranking checks.
template <typename Engine>
double PaperRating(const Engine& engine, const datagen::Dataset& dataset,
                   Report* report) {
  std::vector<std::pair<video::VideoId, std::vector<core::ScoredVideo>>>
      lists;
  for (video::VideoId q : dataset.QueryVideoIds()) {
    auto r = engine.RecommendById(q, 10);
    report->Check(r.ok(), "paper query " + std::to_string(q) + " failed");
    if (!r.ok()) continue;
    CheckRanking(report, q, *r, 10, "paper query");
    lists.push_back({q, *r});
  }
  return AverageRatingAt10(dataset, lists);
}

/// Tail latency figures for the traced output: p50 and the highest of
/// p90/p99 with at least ten samples beyond it, plus the sample count.
void AddTail(const std::vector<double>& samples_ms, Layers* layers);

/// Prints every round's value of one metric to stderr, so other round
/// statistics can be tried on a finished run.
void LogRounds(const char* workload, const char* metric,
               const std::vector<double>& values);

/// Tracing overhead in percent: the round statistic of traced rounds
/// against that of the untraced rounds they alternate with.
double TraceOverheadPct(const std::vector<double>& traced,
                        const std::vector<double>& untraced);

int RunCsfQuery(const Args& args, Report* report);
int RunSocialStream(const Args& args, Report* report);
int RunServeZipf(const Args& args, Report* report);

}  // namespace vrec::csfbench

#endif  // VREC_CSFBENCH_COMMON_H_
