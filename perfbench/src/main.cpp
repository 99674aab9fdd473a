// perfbench_untraced and perfbench_traced: run one workload and print its
// metrics, one per line, then one JSON result line. perfbench/run.py builds
// and invokes them:
//
//   perfbench_untraced --workload ic --seed 3 --seconds 30 --trace 0
//       --work-dir DIR
//
// --trace 1 requires perfbench_traced and prints per-layer metrics
// instead of end-to-end ones. Exit status 0 iff every check passed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_untraced|perfbench_traced "
               "--workload ic|nlp_service|sr_durable --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed" || flag == "--seconds") {
      try {
        if (flag == "--seed") {
          config.seed = std::stoull(value);
        } else {
          config.seconds = std::stod(value);
        }
      } catch (const std::exception&) {
        return usage((flag + " takes a number").c_str());
      }
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (config.workload.empty() || config.work_dir.empty()) {
    return usage("--workload and --work-dir are required");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: built as CMAKE_BUILD_TYPE='%s'; timings "
                 "need a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (config.trace != kTraced) {
    return usage(config.trace
                     ? "--trace 1 needs perfbench_traced"
                     : "perfbench_traced measures --trace 1 only");
  }

  std::filesystem::create_directories(config.work_dir);
  std::printf("host.cxx_flags    %s\n", PERFBENCH_CXX_FLAGS);
  perfbench::RunResult result = perfbench::run_workload(config);
  if (config.trace) {
    const bool wrapped = result.value("tensor.gemm_s.nt") > 0;
    if (!wrapped) result.fail("no tensor spans recorded: wrappers not linked");
    if (!perfbench::write_chrome_trace(config.work_dir + "/trace.json")) {
      result.notes.push_back("could not write " + config.work_dir +
                             "/trace.json");
    }
  } else if (result.attempted > 0) {
    result.set("ok_frac",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "frac");
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              result.correct ? "true" : "false", result.attempted,
              result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
