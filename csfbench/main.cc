// csf_bench: one workload per run, selected by --workload, with inputs
// generated from --seed. Prints diagnostics to stderr and, as the last line
// of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to <out-dir>/trace-*.json.
// Exits non-zero, after the result line, when an output check or an
// operation fails.
//
//   csf_bench --workload csf_query --seed 7 --seconds 20 --trace 0

#include <cstdlib>
#include <filesystem>

#include "common.h"

namespace vrec::csfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: csf_bench --workload csf_query|social_stream|"
               "serve_zipf --seed N --seconds S --trace 0|1 "
               "[--corpus-seed N] "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace vrec::csfbench

int main(int argc, char** argv) {
  using namespace vrec::csfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--corpus-seed") {
      args.corpus_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 1;
  }

  Report report;
  int rc = 0;
  if (args.workload == "csf_query") {
    rc = RunCsfQuery(args, &report);
  } else if (args.workload == "social_stream") {
    rc = RunSocialStream(args, &report);
  } else if (args.workload == "serve_zipf") {
    rc = RunServeZipf(args, &report);
  } else {
    return Usage();
  }
  if (rc == 0 && args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    if (Tracer::Get().Write(path)) {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    } else {
      rc = Fail(&report, "write " + path, vrec::Status::Internal("I/O"));
    }
  }
  std::fprintf(stderr, "%llu output checks, %s\n",
               static_cast<unsigned long long>(report.checks()),
               report.correct() ? "all passed" : "SOME FAILED");
  // Printed also when the workload stopped early or a check failed; then
  // the exit code is non-zero.
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return rc == 0 && report.correct() && report.failed() == 0 ? 0 : 1;
}
