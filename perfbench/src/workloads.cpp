#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "tuning/historical_cache.hpp"
#include "tuning/job_server.hpp"
#include "tuning/report_io.hpp"

namespace perfbench {

using edgetune::EdgeTune;
using edgetune::EdgeTuneOptions;
using edgetune::Stopwatch;
using edgetune::TuningReport;
using edgetune::WorkloadKind;

namespace {

/// The CLI's default job (tools/edgetune_cli.cpp): BOHB, multi-budget,
/// max-resource 8, eta 2, 2 brackets, 500 proxy samples, grid inference
/// tuning for energy on the rpi3b, 2 inference workers, 1 trial worker.
EdgeTuneOptions cli_default_options(WorkloadKind kind, std::uint64_t seed) {
  EdgeTuneOptions o;
  o.workload = kind;
  o.search_algorithm = "bohb";
  o.budget_policy = "multi-budget";
  o.tuning_metric = edgetune::MetricOfInterest::kRuntime;
  o.inference.objective = edgetune::MetricOfInterest::kEnergy;
  o.inference.algorithm = "grid";
  o.inference.workers = 2;
  o.edge_device = edgetune::device_rpi3b();
  o.hyperband.max_resource = 8;
  o.hyperband.eta = 2;
  o.hyperband.max_brackets = 2;
  o.trial_workers = 1;
  o.intra_op_threads = 1;
  o.runner.proxy_samples = 500;
  o.seed = seed;
  return o;
}

/// Compact JSON of a report: the byte-identity oracle the checks compare.
std::string report_text(const TuningReport& report) {
  return edgetune::report_to_json(report).dump();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0;
}

/// The report with the simulated makespan zeroed. That field is the only
/// one that depends on trial_workers by design (the rung makespan over that
/// many simulated workers, model_server.hpp); every other byte must match.
std::string report_text_without_makespan(TuningReport report) {
  report.tuning_runtime_s = 0;
  return report_text(report);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// "name: n samples: a b c ..." for the notes block.
std::string samples_note(const std::string& name,
                         const std::vector<double>& v) {
  std::string line = name + ": " + std::to_string(v.size()) + " samples:";
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, " %.4g", x);
    line += buf;
  }
  return line;
}

/// Per-job tensor metrics from the spans recorded over `jobs` traced jobs.
void set_tensor_metrics(const SpanTable& t, int jobs, RunResult& out) {
  const double n = std::max(1, jobs);
  const auto per_job = [&](SpanId id) {
    return t[static_cast<std::size_t>(id)].total_s / n;
  };
  out.set("tensor.im2col_s", per_job(SpanId::kIm2col), "s");
  out.set("tensor.col2im_s", per_job(SpanId::kCol2im), "s");
  out.set("tensor.im2col_1d_s", per_job(SpanId::kIm2col1d), "s");
  out.set("tensor.col2im_1d_s", per_job(SpanId::kCol2im1d), "s");
  out.set("tensor.gemm_s.nt", per_job(SpanId::kGemmNT), "s");
  out.set("tensor.gemm_s.tn", per_job(SpanId::kGemmTN), "s");
  out.set("tensor.gemm_s.nn", per_job(SpanId::kGemmNN), "s");
  double flops = 0, secs = 0;
  for (SpanId id : {SpanId::kGemmNT, SpanId::kGemmTN, SpanId::kGemmNN}) {
    flops += t[static_cast<std::size_t>(id)].flops;
    secs += t[static_cast<std::size_t>(id)].total_s;
  }
  out.set("tensor.gemm_gflops", secs > 0 ? flops / secs * 1e-9 : 0,
          "GFLOP/s");
}

// ------------------------------------------------------------------ ic ---

struct IcWindow {
  std::vector<double> w1_s, w2_s;  // run() wall time per job, in pair order
  int jobs = 0;
  double elapsed_s = 0;
  SpanTable w1_spans{};  // spans of the trial_workers 1 jobs, when tracing
};

struct IcState {
  EdgeTuneOptions request;
  // The run's first report at trial_workers 1 and 2; every repeat at the
  // same worker count must serialize to the same bytes.
  std::map<int, TuningReport> first;
  double peak_rss_mb = 0;  // after the warm-up and the first serial job
};

/// Back-to-back jobs of one request in pairs, one at each worker count,
/// alternating which runs first so both see the same drift of the host.
/// Runs whole pairs until `seconds` have passed and at least `min_pairs`
/// are done.
IcWindow ic_window(IcState& state, double seconds, int min_pairs,
                   RunResult& out) {
  IcWindow window;
  Stopwatch clock;
  for (int pair = 0; pair < min_pairs || clock.elapsed_seconds() < seconds;
       ++pair) {
    for (int slot = 0; slot < 2; ++slot) {
      const int workers = (pair + slot) % 2 == 0 ? 1 : 2;
      EdgeTuneOptions options = state.request;
      options.trial_workers = workers;
      EdgeTune tuner(options);
      Stopwatch job;
      edgetune::Result<TuningReport> report = tuner.run();
      const double secs = job.elapsed_seconds();
      (workers == 1 ? window.w1_s : window.w2_s).push_back(secs);
      if (tracing()) {
        const SpanTable spans = collect_and_reset();
        if (workers == 1) add_into(window.w1_spans, spans);
      }
      ++window.jobs;
      ++out.attempted;
      if (!report.ok()) {
        ++out.failed;
        out.fail("ic job failed: " + report.status().to_string());
        continue;
      }
      // The peak of one serial job, as the CLI runs it by default. Later
      // 2-worker jobs each build fresh pool threads whose malloc arenas the
      // allocator keeps, so the process peak creeps up with every pair the
      // window happens to fit.
      if (workers == 1 && state.peak_rss_mb == 0) {
        state.peak_rss_mb = peak_rss_mb();
      }
      auto [it, inserted] = state.first.emplace(workers, report.value());
      if (!inserted && report_text(report.value()) != report_text(it->second)) {
        ++out.failed;
        out.fail("ic report at trial_workers " + std::to_string(workers) +
                 " differs from the run's first one");
      }
    }
  }
  window.elapsed_s = clock.elapsed_seconds();
  return window;
}

RunResult run_ic(const RunConfig& config) {
  RunResult out;
  IcState state;
  state.request =
      cli_default_options(WorkloadKind::kImageClassification, config.seed);

  {  // Warm-up: a short serial job, excluded from every timing. Serial so
     // that no trial-pool arenas exist before the peak_rss_mb reading.
    EdgeTuneOptions warm = state.request;
    warm.hyperband.max_resource = 2;
    warm.runner.proxy_samples = 100;
    (void)EdgeTune(warm).run();
  }
  // After the warm-up, so a cold process's first allocations and idle
  // cores do not land in the median.
  const double setup_s = median_until_repeats([&] {
    Stopwatch clock;
    auto tuner = std::make_unique<EdgeTune>(state.request);
    const double secs = clock.elapsed_seconds();
    tuner.reset();
    return secs;
  });

  const int min_pairs = config.trace ? 2 : 3;
  const double window_s = config.trace ? config.seconds / 2 : config.seconds;
  const IcWindow untraced = ic_window(state, window_s, min_pairs, out);
  IcWindow traced;
  if (config.trace) {
    (void)collect_and_reset();
    set_tracing(true);
    traced = ic_window(state, window_s, min_pairs, out);
    set_tracing(false);
  }

  // trial_workers 1 and 2 must agree on every byte but the makespan.
  if (state.first.size() != 2 ||
      report_text_without_makespan(state.first.at(1)) !=
          report_text_without_makespan(state.first.at(2))) {
    out.failed += static_cast<int>(untraced.w2_s.size() + traced.w2_s.size());
    out.fail("ic reports at trial_workers 1 and 2 differ");
  }
  out.notes.push_back(samples_note("ic.job_s.w1", untraced.w1_s));
  out.notes.push_back(samples_note("ic.job_s.w2", untraced.w2_s));

  const double job_s = median(untraced.w1_s);
  const double job_s_w2 = median(untraced.w2_s);
  if (!config.trace) {
    out.set("job_s", job_s, "s");
    out.set("job_s.w2", job_s_w2, "s");
    out.set("scaling.w2", paired_ratio_median(untraced.w1_s, untraced.w2_s),
            "ratio");
    out.set("jobs_per_s", untraced.jobs / untraced.elapsed_s, "1/s");
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", state.peak_rss_mb, "MB");
    return out;
  }

  if (state.first.count(1) == 0) return out;  // no serial report to replay

  // Per serial job: 2-worker jobs overlap their trials' spans in time.
  set_tensor_metrics(traced.w1_spans, static_cast<int>(traced.w1_s.size()),
                     out);
  out.notes.push_back(samples_note("ic.traced.job_s.w1", traced.w1_s));
  std::int64_t spans = 0;
  for (const SpanTotals& t : traced.w1_spans) spans += t.count;
  out.notes.push_back("ic.traced.tensor_spans_per_job: " +
                      std::to_string(spans / std::max<std::int64_t>(
                                                 1, traced.w1_s.size())));
  out.set("trace.overhead", median(traced.w1_s) / job_s - 1, "frac");
  const TuningReport& ref = state.first.at(1);
  out.set("cache.hit_ratio",
          static_cast<double>(ref.cache_hits) /
              static_cast<double>(
                  std::max<std::size_t>(1, ref.cache_hits + ref.cache_misses)),
          "frac");
  out.set("tuning.best_accuracy", ref.best_accuracy, "frac");
  out.set("tuning.sim_tuning_min", ref.tuning_runtime_s / 60, "min");
  replay_layers(state.request, ref, /*cache_entries=*/0, config.work_dir,
                out);
  // Trial-pool capacity at 2 workers left idle: 1 - busy / (2 x wall).
  out.set("model_server.pool_idle_share.w2",
          1 - out.value("model_server.measure_s") / (2 * job_s_w2), "frac");
  return out;
}

// ------------------------------------------------------------ services ---

struct ServiceSpec {
  WorkloadKind kind;
  bool durable;    // journal_dir set: every job writes a manifest + journal
  double phase_s;  // length of one 1-outstanding or 2-outstanding phase
};

constexpr std::size_t kQualityPrefix = 64;  // jobs averaged for tuning.*
constexpr int kTenants = 3;

struct JobRecord {
  std::size_t index = 0;
  int phase = 0;
  int outstanding = 0;
  double latency_s = 0;
  double submit_s = 0;
  bool ok = false;
  double best_accuracy = 0;
  double sim_min = 0;
  std::size_t cache_hits = 0, cache_misses = 0;
  std::string text;  // kept for the sampled jobs only
  TuningReport report;  // kept for job 0 only (the replay's job)
};

struct Phase {
  int outstanding = 0;
  int jobs = 0;
  double seconds = 0;
};

class ServiceRun {
 public:
  ServiceRun(const RunConfig& config, ServiceSpec spec)
      : config_(config), spec_(spec) {
    namespace fs = std::filesystem;
    fs::create_directories(config.work_dir);
    cache_path_ = config.work_dir + "/shared_cache.json";
    options_.workers = 2;
    options_.shared_cache_shards = 1;
    if (spec.durable) {
      options_.journal_dir = config.work_dir + "/journal";
    } else {
      options_.shared_cache_path = cache_path_;
    }
    // Correctness sample: job 0 (also the replay's job) plus three more
    // from the quality prefix, which every run completes.
    edgetune::Rng rng(config.seed ^ 0x5a5aULL);
    sampled_.insert(0);
    while (sampled_.size() < 4) {
      sampled_.insert(static_cast<std::size_t>(
          rng.uniform_int(1, kQualityPrefix - 1)));
    }
  }

  edgetune::JobRequest request(std::size_t index) const {
    edgetune::JobRequest r;
    r.options = cli_default_options(spec_.kind, config_.seed * 100000 + index);
    r.tenant = "tenant-" + std::to_string(index % kTenants);
    return r;
  }

  /// The persisted state the server starts from: for the shared-cache
  /// service, an inference recommendation for every architecture of the
  /// search space (TextRNN's integer stride), so every lookup in the stream
  /// is a read.
  void persist_state(RunResult& out) {
    if (spec_.durable) return;
    EdgeTuneOptions options = request(0).options;
    options.inference.cache_path = cache_path_;
    EdgeTune tuner(options);
    const edgetune::TrialRunner runner(tuner.options().runner);
    const edgetune::ParamSpec hparam =
        edgetune::workload_model_hparam_spec(spec_.kind);
    if (hparam.kind != edgetune::ParamSpec::Kind::kInt) {
      out.fail("the shared-cache service needs an integer model_hparam");
      return;
    }
    for (double h = hparam.lo; h <= hparam.hi; ++h) {
      const auto arch = runner.arch_for({{"model_hparam", h}});
      if (!arch.ok() || !tuner.inference_server().tune(arch.value()).ok()) {
        out.fail("could not pre-tune the shared cache");
        return;
      }
    }
    if (!tuner.inference_server().cache().save().is_ok()) {
      out.fail("could not persist the shared cache");
    }
  }

  RunResult run() {
    RunResult out;
    persist_state(out);
    edgetune::TuningJobServer server(options_);
    {  // Warm-up: two jobs outside the stream, excluded from every timing.
      std::vector<edgetune::JobId> ids;
      for (std::size_t i = 0; i < 2; ++i) {
        auto id = server.submit(request(90000 + i));
        if (id.ok()) ids.push_back(id.value());
      }
      for (auto id : ids) (void)server.wait(id);
    }
    // After the warm-up, as for ic. The stream's server idles meanwhile.
    const double setup_s = median_until_repeats([&] {
      Stopwatch clock;
      auto other = std::make_unique<edgetune::TuningJobServer>(options_);
      auto tuner = std::make_unique<EdgeTune>(request(0).options);
      const double secs = clock.elapsed_seconds();
      tuner.reset();
      other.reset();
      return secs;
    });

    const double window_s =
        config_.trace ? config_.seconds / 2 : config_.seconds;
    std::vector<Phase> untraced = window(server, window_s, out);
    std::vector<JobRecord> untraced_jobs = std::move(jobs_);
    jobs_.clear();
    std::vector<Phase> traced;
    SpanTable spans{};
    if (config_.trace) {
      set_tracing(true);
      traced = window(server, window_s, out);
      set_tracing(false);
      spans = collect_and_reset();
    }
    std::vector<JobRecord> traced_jobs = std::move(jobs_);

    std::vector<JobRecord> all = untraced_jobs;
    all.insert(all.end(), traced_jobs.begin(), traced_jobs.end());
    const std::map<std::size_t, double> standalone_s = check(all, out);
    check_service_state(server, out);

    const auto latencies = [](const std::vector<JobRecord>& jobs, int k) {
      std::vector<double> v;
      for (const JobRecord& j : jobs) {
        if (j.outstanding == k) v.push_back(j.latency_s);
      }
      return v;
    };
    const std::vector<double> w1 = latencies(untraced_jobs, 1);
    const std::vector<double> w2 = latencies(untraced_jobs, 2);
    double jobs = 0, secs = 0;
    std::vector<double> thr1, thr2;
    for (const Phase& p : untraced) {
      jobs += p.jobs;
      secs += p.seconds;
      (p.outstanding == 1 ? thr1 : thr2).push_back(p.jobs / p.seconds);
    }
    out.notes.push_back(samples_note("svc.phase_jobs_per_s.w1", thr1));
    out.notes.push_back(samples_note("svc.phase_jobs_per_s.w2", thr2));
    out.notes.push_back("svc.jobs: " + std::to_string(w1.size()) +
                        " at 1 outstanding, " + std::to_string(w2.size()) +
                        " at 2 outstanding");
    for (const std::vector<double>* v : {&w1, &w2}) {
      if (const auto p90 = tail_percentile(*v, 0.9)) {
        out.notes.push_back(
            std::string("job_p90_s.") + (v == &w1 ? "w1" : "w2") + " " +
            std::to_string(*p90) + " s over " + std::to_string(v->size()) +
            " jobs");
      }
    }
    if (!config_.trace) {
      out.set("job_s", median(w1), "s");
      out.set("job_s.w2", median(w2), "s");
      out.set("scaling.w2", paired_ratio_median(thr2, thr1), "ratio");
      out.set("jobs_per_s", jobs / secs, "1/s");
      out.set("setup_s", setup_s, "s");
      out.set("peak_rss_mb", peak_rss_mb(), "MB");
      return out;
    }

    set_tensor_metrics(spans, static_cast<int>(traced_jobs.size()), out);
    out.set("trace.overhead",
            median(latencies(traced_jobs, 1)) / median(w1) - 1, "frac");
    std::vector<double> submit_s;
    for (const JobRecord& j : traced_jobs) submit_s.push_back(j.submit_s);
    out.set("svc.submit_s", mean(submit_s), "s");
    std::vector<double> dispatch_s;
    for (const JobRecord& j : all) {
      auto it = standalone_s.find(j.index);
      if (j.outstanding == 1 && it != standalone_s.end()) {
        dispatch_s.push_back(j.latency_s - it->second);
      }
    }
    if (!dispatch_s.empty()) out.set("svc.dispatch_s", mean(dispatch_s), "s");
    const edgetune::TuningServiceStats stats = server.stats();
    out.set("svc.rejected",
            static_cast<double>(stats.rejected_queue_full +
                                stats.rejected_tenant_quota),
            "count");
    std::size_t hits = 0, lookups = 0;
    std::vector<double> accuracy, sim_min;
    for (const JobRecord& j : all) {
      hits += j.cache_hits;
      lookups += j.cache_hits + j.cache_misses;
      if (j.index < kQualityPrefix) {
        accuracy.push_back(j.best_accuracy);
        sim_min.push_back(j.sim_min);
      }
    }
    out.set("cache.hit_ratio",
            static_cast<double>(hits) /
                static_cast<double>(std::max<std::size_t>(1, lookups)),
            "frac");
    out.set("tuning.best_accuracy", mean(accuracy), "frac");
    out.set("tuning.sim_tuning_min", mean(sim_min), "min");
    for (const JobRecord& j : all) {
      if (j.index == 0) {
        replay_layers(request(0).options, j.report,
                      spec_.durable ? 0 : server.shared_cache()->size(),
                      config_.work_dir, out);
      }
    }
    return out;
  }

 private:
  /// Alternating phases with 1 and 2 outstanding jobs: one closed-loop
  /// client thread per outstanding job, each submitting its next request
  /// when the previous one returns. Whole phase pairs run until `seconds`
  /// have passed and the quality prefix has been submitted.
  std::vector<Phase> window(edgetune::TuningJobServer& server, double seconds,
                            RunResult& out) {
    std::vector<Phase> phases;
    Stopwatch clock;
    for (int p = 0; p % 2 == 1 || clock.elapsed_seconds() < seconds ||
                    next_.load() < kQualityPrefix;
         ++p) {
      Phase phase;
      phase.outstanding = p % 2 == 0 ? 1 : 2;
      Stopwatch phase_clock;
      std::vector<std::thread> clients;
      for (int c = 0; c < phase.outstanding; ++c) {
        clients.emplace_back([&] {
          while (phase_clock.elapsed_seconds() < spec_.phase_s) {
            client_job(server, phase.outstanding, out);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      phase.seconds = phase_clock.elapsed_seconds();
      phase.jobs = static_cast<int>(
          std::count_if(jobs_.begin(), jobs_.end(), [&](const JobRecord& j) {
            return j.phase == static_cast<int>(phases_started_);
          }));
      ++phases_started_;
      phases.push_back(phase);
    }
    return phases;
  }

  void client_job(edgetune::TuningJobServer& server, int outstanding,
                  RunResult& out) {
    JobRecord record;
    record.index = next_.fetch_add(1);
    record.outstanding = outstanding;
    Stopwatch clock;
    auto id = server.submit(request(record.index));
    record.submit_s = clock.elapsed_seconds();
    if (id.ok()) {
      edgetune::Result<TuningReport> report = server.wait(id.value());
      record.latency_s = clock.elapsed_seconds();
      if (report.ok()) {
        const TuningReport& r = report.value();
        record.ok = true;
        record.best_accuracy = r.best_accuracy;
        record.sim_min = r.tuning_runtime_s / 60;
        record.cache_hits = r.cache_hits;
        record.cache_misses = r.cache_misses;
        if (sampled_.count(record.index) > 0) record.text = report_text(r);
        if (record.index == 0) record.report = r;
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    record.phase = static_cast<int>(phases_started_);
    ++out.attempted;
    if (!record.ok) {
      ++out.failed;
      out.fail("job " + std::to_string(record.index) + " failed");
    }
    jobs_.push_back(std::move(record));
  }

  /// Each sampled job's report must equal a standalone EdgeTune::run of
  /// the same request (over the same persisted cache). Returns the
  /// standalone construct+run time per sampled job.
  std::map<std::size_t, double> check(const std::vector<JobRecord>& all,
                                      RunResult& out) {
    std::map<std::size_t, double> standalone_s;
    for (const JobRecord& j : all) {
      if (sampled_.count(j.index) == 0 || !j.ok) continue;
      EdgeTuneOptions options = request(j.index).options;
      if (!spec_.durable) {
        options.inference.shared_cache =
            std::make_shared<edgetune::HistoricalCache>(cache_path_);
      }
      Stopwatch clock;
      edgetune::Result<TuningReport> report = EdgeTune(options).run();
      standalone_s[j.index] = clock.elapsed_seconds();
      if (!report.ok() || report_text(report.value()) != j.text) {
        ++out.failed;
        out.fail("job " + std::to_string(j.index) +
                 " differs from a standalone run of its request");
      }
    }
    if (standalone_s.size() != sampled_.size()) {
      out.fail("not every sampled job completed");
    }
    return standalone_s;
  }

  /// Service invariants after the stream: no manifest or journal outlives
  /// its job, and the shared cache served every lookup as a read.
  void check_service_state(const edgetune::TuningJobServer& server,
                           RunResult& out) {
    if (spec_.durable) {
      namespace fs = std::filesystem;
      for (const auto& entry : fs::directory_iterator(options_.journal_dir)) {
        out.fail("left behind in journal_dir: " +
                 entry.path().filename().string());
      }
    } else if (server.shared_cache()->misses() != 0) {
      out.fail("the persisted shared cache missed " +
               std::to_string(server.shared_cache()->misses()) + " lookups");
    }
  }

  const RunConfig& config_;
  ServiceSpec spec_;
  edgetune::TuningServiceOptions options_;
  std::string cache_path_;
  std::set<std::size_t> sampled_;
  std::atomic<std::size_t> next_{0};
  std::mutex mutex_;  // guards jobs_, phases_started_ and the RunResult
  std::vector<JobRecord> jobs_;
  std::size_t phases_started_ = 0;
};

}  // namespace

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

double RunResult::value(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void RunResult::fail(const std::string& why) {
  correct = false;
  notes.push_back("FAILED: " + why);
}

RunResult run_workload(const RunConfig& config) {
  if (config.workload == "ic") return run_ic(config);
  if (config.workload == "nlp_service") {
    return ServiceRun(config, {WorkloadKind::kNlp, false, 1.5}).run();
  }
  if (config.workload == "sr_durable") {
    return ServiceRun(config, {WorkloadKind::kSpeech, true, 3.0}).run();
  }
  RunResult out;
  out.fail("unknown workload '" + config.workload + "'");
  return out;
}

}  // namespace perfbench
