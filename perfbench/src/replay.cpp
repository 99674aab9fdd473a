#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/durable_io.hpp"
#include "common/stopwatch.hpp"
#include "data/synthetic.hpp"
#include "models/models.hpp"
#include "nn/conv.hpp"
#include "nn/layers_basic.hpp"
#include "nn/loss.hpp"
#include "nn/norm.hpp"
#include "nn/optimizer.hpp"
#include "search/algorithms.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "tuning/fleet.hpp"
#include "tuning/historical_cache.hpp"
#include "tuning/inference_server.hpp"
#include "tuning/job_server.hpp"
#include "tuning/journal.hpp"

namespace perfbench {

using namespace edgetune;

namespace {

std::optional<SpanId> span_for(const Layer& layer) {
  static const std::map<std::string, SpanId> kinds = {
      {"conv2d", SpanId::kConv2d},     {"conv1d", SpanId::kConv1d},
      {"batchnorm", SpanId::kBatchNorm}, {"maxpool2d", SpanId::kPool},
      {"maxpool1d", SpanId::kPool},    {"avgpool2d", SpanId::kPool},
      {"gap", SpanId::kPool},          {"gap1d", SpanId::kPool},
      {"rnn", SpanId::kRnn},           {"linear", SpanId::kLinear},
  };
  const std::string name = layer.name();
  if (name == "resblock" || name == "bottleneck") return std::nullopt;
  auto it = kinds.find(name);
  return it == kinds.end() ? SpanId::kOther : it->second;
}

/// A layer driven with a span around each forward and backward call.
class Spanned : public Layer {
 public:
  Spanned(Layer& layer, SpanId id) : layer_(layer), id_(id) {}
  Tensor forward(const Tensor& input, bool training) override {
    ScopedSpan span(id_);
    return layer_.forward(input, training);
  }
  Tensor backward(const Tensor& grad_output) override {
    ScopedSpan span(id_);
    return layer_.backward(grad_output);
  }
  std::vector<ParamRef> params() override { return layer_.params(); }
  [[nodiscard]] LayerInfo describe(const Shape& input_shape) const override {
    return layer_.describe(input_shape);
  }
  [[nodiscard]] std::string name() const override { return layer_.name(); }

 private:
  Layer& layer_;
  SpanId id_;
};

/// The composition of nn/residual.cpp's ResidualBlock (expansion 1) and
/// BottleneckBlock (expansion 4) rebuilt from public layers, so a span can
/// sit around every conv and BatchNorm inside the block. Checked against the
/// real block's describe() before use.
class BlockReplica : public Layer {
 public:
  BlockReplica(bool bottleneck, std::int64_t in_c, std::int64_t out_c,
               std::int64_t stride, Rng& rng) {
    const auto add = [&](std::unique_ptr<Layer> layer) {
      const SpanId id = span_for(*layer).value();
      owned_.push_back(std::move(layer));
      main_.push_back(std::make_unique<Spanned>(*owned_.back(), id));
    };
    if (bottleneck) {
      const std::int64_t mid = out_c / 4;
      add(std::make_unique<Conv2D>(in_c, mid, 1, 1, 0, rng, false));
      add(std::make_unique<BatchNorm>(mid));
      add(std::make_unique<ReLU>());
      add(std::make_unique<Conv2D>(mid, mid, 3, stride, 1, rng, false));
      add(std::make_unique<BatchNorm>(mid));
      add(std::make_unique<ReLU>());
      add(std::make_unique<Conv2D>(mid, out_c, 1, 1, 0, rng, false));
      add(std::make_unique<BatchNorm>(out_c));
    } else {
      add(std::make_unique<Conv2D>(in_c, out_c, 3, stride, 1, rng, false));
      add(std::make_unique<BatchNorm>(out_c));
      add(std::make_unique<ReLU>());
      add(std::make_unique<Conv2D>(out_c, out_c, 3, 1, 1, rng, false));
      add(std::make_unique<BatchNorm>(out_c));
    }
    if (stride != 1 || in_c != out_c) {
      proj_ = std::make_unique<Conv2D>(in_c, out_c, 1, stride, 0, rng, false);
      proj_bn_ = std::make_unique<BatchNorm>(out_c);
      proj_span_ = std::make_unique<Spanned>(*proj_, SpanId::kConv2d);
      proj_bn_span_ = std::make_unique<Spanned>(*proj_bn_, SpanId::kBatchNorm);
    }
  }

  Tensor forward(const Tensor& input, bool training) override {
    Tensor main = input;
    for (auto& layer : main_) main = layer->forward(main, training);
    Tensor skip = input;
    if (proj_) {
      skip = proj_span_->forward(input, training);
      skip = proj_bn_span_->forward(skip, training);
    }
    ScopedSpan span(SpanId::kOther);  // residual add + final ReLU
    main.add_inplace(skip);
    return out_relu_.forward(main, training);
  }

  Tensor backward(const Tensor& grad_output) override {
    Tensor g;
    {
      ScopedSpan span(SpanId::kOther);
      g = out_relu_.backward(grad_output);
    }
    Tensor g_main = g;
    for (auto it = main_.rbegin(); it != main_.rend(); ++it) {
      g_main = (*it)->backward(g_main);
    }
    Tensor g_skip = g;
    if (proj_) {
      g_skip = proj_bn_span_->backward(g_skip);
      g_skip = proj_span_->backward(g_skip);
    }
    ScopedSpan span(SpanId::kOther);
    g_main.add_inplace(g_skip);
    return g_main;
  }

  std::vector<ParamRef> params() override {
    std::vector<ParamRef> out;
    for (auto& layer : owned_) {
      auto p = layer->params();
      out.insert(out.end(), p.begin(), p.end());
    }
    if (proj_) {
      for (Layer* l : {static_cast<Layer*>(proj_.get()),
                       static_cast<Layer*>(proj_bn_.get())}) {
        auto p = l->params();
        out.insert(out.end(), p.begin(), p.end());
      }
    }
    return out;
  }

  [[nodiscard]] LayerInfo describe(const Shape& input_shape) const override {
    LayerInfo total;
    Shape shape = input_shape;
    for (const auto& layer : owned_) {
      const LayerInfo info = layer->describe(shape);
      total.flops_forward += info.flops_forward;
      total.param_count += info.param_count;
      shape = info.output_shape;
    }
    if (proj_) {
      const LayerInfo p1 = proj_->describe(input_shape);
      const LayerInfo p2 = proj_bn_->describe(p1.output_shape);
      total.flops_forward += p1.flops_forward + p2.flops_forward;
      total.param_count += p1.param_count + p2.param_count;
    }
    total.flops_forward += 2.0 * static_cast<double>(shape_numel(shape));
    total.output_shape = shape;
    return total;
  }

  [[nodiscard]] std::string name() const override { return "block_replica"; }

 private:
  std::vector<std::unique_ptr<Layer>> owned_;
  std::vector<std::unique_ptr<Spanned>> main_;
  std::unique_ptr<Conv2D> proj_;
  std::unique_ptr<BatchNorm> proj_bn_;
  std::unique_ptr<Spanned> proj_span_, proj_bn_span_;
  ReLU out_relu_;
};

/// One architecture ready for traced training steps.
struct StepModel {
  BuiltModel model;
  std::vector<std::unique_ptr<Layer>> nodes;  // Spanned or BlockReplica
  std::unique_ptr<SgdOptimizer> optimizer;
  Batch batch;
};

Status build_step_model(WorkloadKind kind, const Config& config,
                        std::uint64_t seed, StepModel& out) {
  Rng rng(seed ^ config_hash(config));
  ET_ASSIGN_OR_RETURN(out.model, build_workload_model(
                                     kind, config.at("model_hparam"), rng));
  const auto train_batch = static_cast<std::int64_t>(
      config.count("train_batch") ? config.at("train_batch") : 128);
  // TrialRunner's proxy batch mapping (tuning/trial_runner.cpp).
  const std::int64_t batch = std::clamp<std::int64_t>(train_batch / 16, 4, 64);
  Shape shape = {batch};
  for (std::int64_t d : out.model.proxy_sample_shape) shape.push_back(d);
  std::vector<ParamRef> params;
  Sequential& net = *out.model.net;
  for (std::size_t i = 0; i < net.size(); ++i) {
    Layer& layer = net.layer(i);
    const LayerInfo info = layer.describe(shape);
    if (std::optional<SpanId> id = span_for(layer)) {
      out.nodes.push_back(std::make_unique<Spanned>(layer, *id));
    } else {
      const bool bottleneck = layer.name() == "bottleneck";
      const std::int64_t stride =
          shape[2] > info.output_shape[2] ? shape[2] / info.output_shape[2] : 1;
      auto replica = std::make_unique<BlockReplica>(
          bottleneck, shape[1], info.output_shape[1], stride, rng);
      const LayerInfo mirror = replica->describe(shape);
      if (mirror.flops_forward != info.flops_forward ||
          mirror.param_count != info.param_count ||
          mirror.output_shape != info.output_shape) {
        return Status::internal("block replica of " + layer.name() +
                                " does not match the model's block");
      }
      out.nodes.push_back(std::move(replica));
    }
    auto p = out.nodes.back()->params();
    params.insert(params.end(), p.begin(), p.end());
    shape = info.output_shape;
  }
  SgdOptions sgd;
  sgd.learning_rate = config.count("lr") ? config.at("lr") : 0.05;
  out.optimizer = std::make_unique<SgdOptimizer>(std::move(params), sgd);
  auto data = make_workload_data(kind, batch, seed);
  out.batch = DatasetView::all(*data).batch(0, batch);
  return Status::ok();
}

void training_step(StepModel& m) {
  ScopedSpan step(SpanId::kStep);
  Tensor x = m.batch.inputs;
  for (auto& node : m.nodes) x = node->forward(x, /*training=*/true);
  LossResult loss;
  {
    ScopedSpan span(SpanId::kLoss);
    loss = softmax_cross_entropy(x, m.batch.labels);
  }
  Tensor g = loss.grad;
  for (auto it = m.nodes.rbegin(); it != m.nodes.rend(); ++it) {
    g = (*it)->backward(g);
  }
  ScopedSpan span(SpanId::kSgdStep);
  m.optimizer->step();
}

/// One training step of each distinct architecture in the trial log, in
/// rounds until a second has passed; reports time per round.
void replay_steps(const EdgeTuneOptions& options, const TuningReport& report,
                  RunResult& out) {
  std::map<double, const TrialLog*> first_by_arch;
  for (const TrialLog& t : report.trials) {
    first_by_arch.emplace(t.config.at("model_hparam"), &t);
  }
  std::vector<StepModel> models(first_by_arch.size());
  std::size_t i = 0;
  for (const auto& [hparam, trial] : first_by_arch) {
    const Status built =
        build_step_model(options.workload, trial->config, options.seed,
                         models[i++]);
    if (!built.is_ok()) {
      out.fail(built.to_string());
      return;
    }
  }
  for (StepModel& m : models) training_step(m);  // warm-up, untraced
  (void)collect_and_reset();
  set_tracing(true);
  Stopwatch clock;
  int rounds = 0;
  while (rounds < 5 || clock.elapsed_seconds() < 1.0) {
    for (StepModel& m : models) training_step(m);
    ++rounds;
  }
  set_tracing(false);
  const SpanTable t = collect_and_reset();
  const auto at = [&](SpanId id) { return t[static_cast<std::size_t>(id)]; };
  const double step_s = at(SpanId::kStep).total_s;
  out.set("nn.step_s", step_s / rounds, "s");
  double covered = 0;
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    if (static_cast<SpanId>(k) != SpanId::kStep) covered += t[k].self_s;
  }
  out.set("nn.covered_share", covered / step_s, "frac");
  for (SpanId id : {SpanId::kConv2d, SpanId::kConv1d, SpanId::kBatchNorm,
                    SpanId::kPool, SpanId::kRnn, SpanId::kLinear,
                    SpanId::kOther, SpanId::kLoss, SpanId::kSgdStep}) {
    const std::string name = std::string(span_name(id)) + "_s";
    out.set(name, at(id).total_s / rounds, "s");
    out.set(name + ".share", at(id).self_s / step_s, "frac");
  }
  double tensor_self = 0;
  for (SpanId id : {SpanId::kIm2col, SpanId::kCol2im, SpanId::kIm2col1d,
                    SpanId::kCol2im1d, SpanId::kGemmNT, SpanId::kGemmTN,
                    SpanId::kGemmNN}) {
    tensor_self += at(id).self_s;
  }
  out.set("nn.tensor_share", tensor_self / step_s, "frac");
}

/// SearchAlgorithm::optimize_batch fed the recorded objectives in commit
/// order; the requests it makes must be the recorded trials.
void replay_search(EdgeTune& tuner, const TuningReport& report,
                   RunResult& out) {
  const EdgeTuneOptions& options = tuner.options();
  auto algorithm = make_search_algorithm(
      options.search_algorithm, tuner.model_search_space(), options.hyperband,
      options.random_trials, /*batch_size=*/1);
  if (!algorithm.ok()) {
    out.fail(algorithm.status().to_string());
    return;
  }
  std::size_t cursor = 0;
  bool diverged = false;
  double feed_s = 0;
  const BatchEvalFn eval = [&](const std::vector<EvalRequest>& batch) {
    Stopwatch clock;
    std::vector<double> objectives;
    for (const EvalRequest& request : batch) {
      const TrialLog* log =
          cursor < report.trials.size() ? &report.trials[cursor] : nullptr;
      ++cursor;
      if (log == nullptr || log->config != request.config ||
          log->resource != request.resource) {
        diverged = true;
        objectives.push_back(std::numeric_limits<double>::infinity());
      } else {
        objectives.push_back(log->objective);
      }
    }
    feed_s += clock.elapsed_seconds();
    return objectives;
  };
  Rng rng(options.seed);
  Stopwatch clock;
  (void)algorithm.value()->optimize_batch(eval, rng);
  const double total_s = clock.elapsed_seconds();
  if (diverged || cursor != report.trials.size()) {
    out.fail("search replay did not reproduce the recorded trial log");
  }
  out.set("search.self_s", total_s - feed_s, "s");
  std::size_t promoted = 0;
  for (std::size_t i = 0; i < report.trials.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (report.trials[j].config == report.trials[i].config &&
          report.trials[j].resource < report.trials[i].resource) {
        ++promoted;
        break;
      }
    }
  }
  const std::size_t trials = std::max<std::size_t>(1, report.trials.size());
  out.set("search.promote_ratio",
          static_cast<double>(promoted) / static_cast<double>(trials), "frac");
}

void replay_cache(const EdgeTuneOptions& options, const TuningReport& report,
                  std::size_t entries, RunResult& out) {
  const std::string device = options.edge_device.name;
  const MetricOfInterest objective = options.inference.objective;
  std::vector<double> store_s, lookup_s;
  for (int rep = 0; rep < 20; ++rep) {
    HistoricalCache cache;
    Stopwatch clock;
    for (std::size_t i = 0; i < entries; ++i) {
      (void)cache.store("arch-" + std::to_string(i), device, objective,
                        report.inference);
    }
    store_s.push_back(clock.elapsed_seconds() / static_cast<double>(entries));
    clock.restart();
    std::size_t found = 0;
    for (std::size_t i = 0; i < 50 * entries; ++i) {
      found += cache.lookup("arch-" + std::to_string(i % entries), device,
                            objective)
                   .has_value();
    }
    lookup_s.push_back(clock.elapsed_seconds() /
                       static_cast<double>(50 * entries));
    if (found != 50 * entries) out.fail("cache replay lost an entry");
  }
  out.set("cache.store_s", median(store_s), "s");
  out.set("cache.lookup_s", median(lookup_s), "s");
}

void replay_journal(const EdgeTuneOptions& options,
                    const std::vector<EvalRequest>& requests,
                    const std::vector<TrialMeasurement>& measurements,
                    const std::string& work_dir, RunResult& out) {
  const std::string path = work_dir + "/replay.journal";
  std::vector<double> append_s, sync_s;
  for (int rep = 0; rep < 4; ++rep) {
    std::remove(path.c_str());
    auto journal = TrialJournal::create(path, options, FaultInjector{});
    if (!journal.ok()) {
      out.fail(journal.status().to_string());
      return;
    }
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      Stopwatch clock;
      const Status appended = journal.value()->append_trial(
          trial_content_key(requests[i]), measurements[i]);
      append_s.push_back(clock.elapsed_seconds());
      clock.restart();
      const Status synced = journal.value()->sync();
      sync_s.push_back(clock.elapsed_seconds());
      if (!appended.is_ok() || !synced.is_ok()) {
        out.fail("journal replay: " + appended.to_string() + " " +
                 synced.to_string());
        return;
      }
    }
  }
  std::remove(path.c_str());
  out.set("journal.append_s", median(append_s), "s");
  out.set("journal.sync_s", median(sync_s), "s");
  out.set("journal.records", static_cast<double>(measurements.size()),
          "count");

  JobRequest request;
  request.options = options;
  const std::string manifest =
      job_request_to_json(request).dump_pretty() + "\n";
  const std::string manifest_path = work_dir + "/replay.manifest.json";
  std::vector<double> write_s;
  for (int rep = 0; rep < 20; ++rep) {
    Stopwatch clock;
    const Status written = durable_write_file(manifest_path, manifest);
    write_s.push_back(clock.elapsed_seconds());
    if (!written.is_ok()) {
      out.fail("durable_write_file: " + written.to_string());
      return;
    }
  }
  std::remove(manifest_path.c_str());
  out.set("durable.write_s", median(write_s), "s");
}

}  // namespace

void replay_layers(const EdgeTuneOptions& options, const TuningReport& report,
                   std::size_t cache_entries, const std::string& work_dir,
                   RunResult& out) {
  const EdgeTuneOptions normalized = normalize_options(options);

  out.set("data.synth_s", median_until_repeats([&] {
            Stopwatch clock;
            TrialRunner runner(normalized.runner);
            return clock.elapsed_seconds();
          }),
          "s");

  replay_steps(normalized, report, out);

  TrialRunner runner(normalized.runner);
  double train_s = 0;
  for (const TrialLog& t : report.trials) {
    Stopwatch clock;
    const Result<TrialOutcome> outcome = runner.run(t.config, t.budget);
    train_s += clock.elapsed_seconds();
    if (!outcome.ok() || outcome.value().accuracy != t.accuracy) {
      out.fail("trial replay did not reproduce trial " + std::to_string(t.id));
    }
  }
  out.set("trial.train_s", train_s, "s");
  out.set("trial.count", static_cast<double>(report.trials.size()), "count");

  EdgeTune tuner(normalized);
  replay_search(tuner, report, out);

  std::vector<EvalRequest> requests;
  std::vector<TrialMeasurement> measurements;
  double measure_s = 0;
  for (const TrialLog& t : report.trials) {
    requests.push_back(EvalRequest{t.id, t.config, t.resource});
    Stopwatch clock;
    measurements.push_back(tuner.measure_one(requests.back()));
    measure_s += clock.elapsed_seconds();
    if (measurements.back().outcome.accuracy != t.accuracy) {
      out.fail("measure_one did not reproduce trial " + std::to_string(t.id));
    }
  }
  out.set("model_server.measure_s", measure_s, "s");

  std::set<std::string> archs;
  double tune_s = 0;
  for (const TrialLog& t : report.trials) {
    const Result<ArchSpec> arch = runner.arch_for(t.config);
    if (!arch.ok() || !archs.insert(arch.value().id).second) continue;
    InferenceServerOptions cold = normalized.inference;
    cold.cache_path.clear();
    cold.shared_cache = nullptr;
    InferenceTuningServer server(normalized.edge_device, cold);
    Stopwatch clock;
    const Result<InferenceRecommendation> rec = server.tune(arch.value());
    tune_s += clock.elapsed_seconds();
    if (!rec.ok()) out.fail("inference tune: " + rec.status().to_string());
  }
  out.set("inference.tune_s", tune_s, "s");
  out.set("inference.tunes", static_cast<double>(archs.size()), "count");

  replay_cache(normalized, report,
               cache_entries > 0 ? cache_entries : archs.size(), out);
  replay_journal(normalized, requests, measurements, work_dir, out);
}

}  // namespace perfbench
