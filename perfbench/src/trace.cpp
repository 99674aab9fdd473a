#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RawSpan {
  SpanId id;
  std::uint32_t tid;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct ThreadState;

// Everything shared between threads, guarded by `mutex`.
struct Registry {
  std::mutex mutex;
  std::vector<ThreadState*> live;
  SpanTable exited{};  // totals flushed by threads that have ended
  std::vector<RawSpan> raw;
  std::uint32_t next_tid = 1;
};

Registry& registry() {
  // Never destroyed: pool threads may exit after main returns.
  static Registry* r = new Registry();
  return *r;
}

constexpr std::size_t kRawSpanCap = 200000;  // spans kept for the trace file

std::atomic<bool> g_tracing{false};
std::atomic<std::size_t> g_raw_count{0};

}  // namespace

void add_into(SpanTable& into, const SpanTable& from) {
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    into[i].count += from[i].count;
    into[i].total_s += from[i].total_s;
    into[i].self_s += from[i].self_s;
    into[i].flops += from[i].flops;
  }
}

namespace {

struct ThreadState {
  SpanStack stack;
  std::vector<RawSpan> raw;
  std::uint32_t tid = 0;

  ThreadState() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    tid = r.next_tid++;
    r.live.push_back(this);
  }
  ~ThreadState() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    add_into(r.exited, stack.totals);
    r.raw.insert(r.raw.end(), raw.begin(), raw.end());
    r.live.erase(std::find(r.live.begin(), r.live.end(), this));
  }
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

const char* span_name(SpanId id) {
  switch (id) {
    case SpanId::kIm2col: return "tensor.im2col";
    case SpanId::kCol2im: return "tensor.col2im";
    case SpanId::kIm2col1d: return "tensor.im2col_1d";
    case SpanId::kCol2im1d: return "tensor.col2im_1d";
    case SpanId::kGemmNT: return "tensor.gemm.nt";
    case SpanId::kGemmTN: return "tensor.gemm.tn";
    case SpanId::kGemmNN: return "tensor.gemm.nn";
    case SpanId::kConv2d: return "nn.conv2d";
    case SpanId::kConv1d: return "nn.conv1d";
    case SpanId::kBatchNorm: return "nn.batchnorm";
    case SpanId::kPool: return "nn.pool";
    case SpanId::kRnn: return "nn.rnn";
    case SpanId::kLinear: return "nn.linear";
    case SpanId::kOther: return "nn.other";
    case SpanId::kLoss: return "nn.loss";
    case SpanId::kSgdStep: return "nn.sgd_step";
    case SpanId::kStep: return "nn.step";
    case SpanId::kCount: break;
  }
  return "unknown";
}

void SpanStack::open(SpanId id, std::int64_t t_ns) {
  frames_.push_back(Frame{id, t_ns, 0});
}

std::int64_t SpanStack::close(std::int64_t t_ns, double flops) {
  const Frame frame = frames_.back();
  frames_.pop_back();
  const std::int64_t duration = t_ns - frame.start_ns;
  SpanTotals& t = totals[static_cast<std::size_t>(frame.id)];
  ++t.count;
  t.total_s += static_cast<double>(duration) * 1e-9;
  t.self_s += static_cast<double>(duration - frame.child_ns) * 1e-9;
  t.flops += flops;
  if (!frames_.empty()) frames_.back().child_ns += duration;
  return duration;
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(SpanId id, double flops)
    : active_(tracing()), flops_(flops) {
  if (active_) thread_state().stack.open(id, now_ns());
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadState& state = thread_state();
  if (g_raw_count.fetch_add(1, std::memory_order_relaxed) < kRawSpanCap) {
    state.raw.push_back(RawSpan{state.stack.innermost_id(), state.tid,
                                state.stack.innermost_start(), end});
  }
  state.stack.close(end, flops_);
}

SpanTable collect_and_reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  SpanTable sum = r.exited;
  r.exited = SpanTable{};
  for (ThreadState* state : r.live) {
    add_into(sum, state->stack.totals);
    state->stack.totals = SpanTable{};
  }
  return sum;
}

bool write_chrome_trace(const std::string& path) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<RawSpan> all = r.raw;
  for (ThreadState* state : r.live) {
    all.insert(all.end(), state->raw.begin(), state->raw.end());
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const RawSpan& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", span_name(s.id), s.tid,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
