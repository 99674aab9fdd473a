// Per-layer replays over one recorded tuning job. Each replay calls one
// module's public functions with the job's own inputs (its options and the
// trial log of its report) and times them, so a layer's cost is measured
// where the job spends it without instrumenting the program:
//   data        TrialRunner construction (proxy-dataset synthesis)
//   nn          one training step of each distinct architecture, with a
//               span around every layer's forward/backward and the SGD step
//   tuning      TrialRunner::run and EdgeTune::measure_one over the trial
//               log, InferenceTuningServer::tune on a cold server,
//               HistoricalCache lookup/store, TrialJournal append/sync
//   search      SearchAlgorithm::optimize_batch fed the recorded objectives
//   common      durable_write_file of a manifest-sized payload
// A replay that does not reproduce the recorded log fails the run.
#pragma once

#include <string>

#include "tuning/model_server.hpp"
#include "workloads.hpp"

namespace perfbench {

void replay_layers(const edgetune::EdgeTuneOptions& options,
                   const edgetune::TuningReport& report,
                   std::size_t cache_entries, const std::string& work_dir,
                   RunResult& out);

}  // namespace perfbench
