// Shared implementation behind common.h: report formatting, the tracer,
// the round statistic, the input recipe and the output checks every
// workload applies to a ranked list.

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.h"
#include "eval/metrics.h"
#include "eval/rating_oracle.h"
#include "io/snapshot.h"

namespace vrec::csfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++check_failures_;
  if (check_failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = metrics_[i].second.first;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    out << (i ? ", " : "") << '"' << metrics_[i].first
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  return out.str();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::ThisThread() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 14);
  }
  return buffer;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d, \"request\": %u}}",
                    first ? "" : ",\n", s.name, s.thread,
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                    s.parent, s.request);
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, uint32_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buffer_ = tracer.ThisThread();
  saved_open_ = buffer_->open;
  index_ = static_cast<int32_t>(buffer_->spans.size());
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - tracer.origin_)
                          .count();
  buffer_->spans.push_back(
      {name, now, now, saved_open_, request, buffer_->thread});
  buffer_->open = index_;
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<size_t>(index_)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - Tracer::Get().origin_)
          .count();
  buffer_->open = saved_open_;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * 4096.0 / (1024.0 * 1024.0);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

datagen::DatasetOptions InputOptions(int num_videos, uint64_t seed) {
  datagen::DatasetOptions options;
  options.num_topics = 20;
  // Two videos (an original and one edited re-upload) per base video.
  options.base_videos_per_topic = std::max(1, num_videos / (2 * 20));
  options.corpus.frames_per_video = 32;
  options.corpus.derivatives_per_base = 1;
  options.community.num_users = 600;
  options.community.num_user_groups = 60;
  options.community.months = 16;
  options.community.comments_per_video_month = 9.0;
  options.community.offtopic_rate = 0.002;
  options.community.popularity_skew = 0.0;
  options.community.secondary_interest = 0.02;
  options.community.interest_floor = 0.0005;
  options.source_months = 12;
  options.seed = Mix(seed);
  return options;
}

void CheckRanking(Report* report, video::VideoId query,
                  const std::vector<core::ScoredVideo>& list, size_t k,
                  const char* what) {
  const std::string tag =
      std::string(what) + " query " + std::to_string(query);
  report->Check(list.size() == k, tag + ": list has " +
                                      std::to_string(list.size()) +
                                      " entries, want " + std::to_string(k));
  std::vector<video::VideoId> ids;
  for (const core::ScoredVideo& r : list) ids.push_back(r.id);
  report->Check(std::find(ids.begin(), ids.end(), query) == ids.end(),
                tag + ": list contains the query itself");
  std::sort(ids.begin(), ids.end());
  report->Check(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                tag + ": duplicate ids");
  for (size_t i = 1; i < list.size(); ++i) {
    const core::ScoredVideo& a = list[i - 1];
    const core::ScoredVideo& b = list[i];
    report->Check(a.score > b.score || (a.score == b.score && a.id < b.id),
                  tag + ": not ordered by (score desc, id asc) at rank " +
                      std::to_string(i));
  }
}

bool SameResults(const std::vector<core::ScoredVideo>& a,
                 const std::vector<core::ScoredVideo>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0 ||
        std::memcmp(&a[i].content, &b[i].content, sizeof(double)) != 0 ||
        std::memcmp(&a[i].social, &b[i].social, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double AverageRatingAt10(
    const datagen::Dataset& dataset,
    const std::vector<std::pair<video::VideoId,
                                std::vector<core::ScoredVideo>>>& lists) {
  const eval::RatingOracle oracle(&dataset);
  std::vector<std::vector<double>> ratings;
  for (const auto& [query, list] : lists) {
    std::vector<video::VideoId> ids;
    for (const core::ScoredVideo& r : list) ids.push_back(r.id);
    ratings.push_back(oracle.RateList(query, ids));
  }
  return eval::Evaluate(ratings, 10).average_rating;
}

void EmitMetrics(const Args& args, const EndToEnd& e2e, const Layers& layers,
                 Report* report) {
  if (!args.trace) {
    report->Metric("setup_s", e2e.setup_s, "s");
    report->Metric("query_ms", e2e.query_ms, "ms");
    report->Metric("round_ms", e2e.round_ms, "ms");
    report->Metric("restore_ms", e2e.restore_ms, "ms");
    report->Metric("snapshot_mb", e2e.snapshot_mb, "MB");
    report->Metric("rating_at_10", e2e.rating_at_10, "rating");
    return;
  }
  for (const auto& [name, layer] : layers) {
    report->Metric(name, layer.value, layer.unit);
  }
}

int Fail(Report* report, const std::string& what, const Status& status) {
  report->Op(false);
  report->Check(false, what + ": " + status.ToString());
  return 1;
}

void AddTail(const std::vector<double>& samples_ms, Layers* layers) {
  const double n = static_cast<double>(samples_ms.size());
  (*layers)["tail.samples"] = {n, "count"};
  (*layers)["tail.p50_ms"] = {Quantile(samples_ms, 0.5), "ms"};
  // The highest percentile with at least ten samples beyond it.
  const double q = n >= 1000 ? 0.99 : 0.90;
  if (n * (1.0 - q) >= 10.0) {
    (*layers)["tail.high_quantile"] = {q * 100.0, "%"};
    (*layers)["tail.high_ms"] = {Quantile(samples_ms, q), "ms"};
  }
}

void AddSnapshotSections(const std::vector<std::string>& paths,
                         Layers* layers) {
  static const char* const kNames[] = {
      "options",        "engine",          "dictionary",
      "maintainer",     "inverted_file",   "lsb_forest",
      "prepared_meta",  "prepared_values", "prepared_weights",
      "prepared_cdf",   "prepared_means",  "histogram_meta",
      "histogram_bins", "histogram_weights"};
  for (const std::string& path : paths) {
    const auto info = io::InspectSnapshot(path);
    if (!info.ok()) continue;
    for (const io::SnapshotSectionInfo& section : info->sections) {
      if (section.id < 1 || section.id > std::size(kNames)) continue;
      Layer& layer = (*layers)[std::string("io.section.") +
                               kNames[section.id - 1] + "_bytes"];
      layer.value += static_cast<double>(section.payload_bytes);
      layer.unit = "B";
    }
  }
}

double TraceOverheadPct(const std::vector<double>& traced,
                        const std::vector<double>& untraced) {
  const double base = Quantile(untraced, kRoundQuantile);
  if (traced.empty() || base <= 0.0) return 0.0;
  return (Quantile(traced, kRoundQuantile) / base - 1.0) * 100.0;
}

void LogRounds(const char* workload, const char* metric,
               const std::vector<double>& values) {
  std::fprintf(stderr, "rounds %s %s:", workload, metric);
  for (double v : values) std::fprintf(stderr, " %.6g", v);
  std::fprintf(stderr, "\n");
}

}  // namespace vrec::csfbench

