// The µBE benchmark binary. perfbench/run.py builds and calls it; see
// README.md in this directory for the workloads and metrics.
//
//   mube_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--slo-ms <ms>] [--trace-dir <dir>]
//
// Prints report lines, then one JSON line: {"correct", "attempted",
// "failed", "metrics"} holding every metric the run computed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--slo-ms") {
      options->slo_ms = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->slo_ms > 0.0)) return false;
    } else if (flag == "--trace-dir") {
      options->trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--slo-ms <ms>] [--trace-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::Outcome out = perfbench::RunWorkload(options);
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& line : out.problems) {
    std::printf("# CHECK FAILED: %s\n", line.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.ToJson().c_str());
  return 0;
}
