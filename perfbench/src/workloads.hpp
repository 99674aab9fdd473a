// The benchmark's three workloads (see perfbench/README.md):
//   ic           back-to-back IC tuning jobs via EdgeTune::run, alternating
//                trial_workers 1 and 2
//   nlp_service  a TuningJobServer with a persisted shared cache serving a
//                closed-loop stream of NLP jobs from 3 tenants
//   sr_durable   the same service shape serving SR jobs with journal_dir set
// Each run measures for a given number of seconds, checks every report it
// can against a reference, and returns named metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;      // per-layer metrics instead of end-to-end ones
  std::string work_dir;    // cache files, journals and the trace file
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void set(const std::string& name, double value, const std::string& unit);
  /// The named metric's value, 0 when it was not set.
  [[nodiscard]] double value(const std::string& name) const;
  /// Marks the run incorrect and notes why; job counts are the caller's.
  void fail(const std::string& why);
};

RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
