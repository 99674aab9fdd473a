// In-memory span recorder for the benchmark's per-layer metrics.
//
// A span covers one call into a layer's public function: the benchmark opens
// it before the call and closes it after (ScopedSpan), and the traced program's
// linker wrappers (wrap.cpp) do the same around the tensor module's lowering
// and GEMM entry points. Spans nest per thread; a span's self time is its
// duration minus the time its direct child spans cover. Totals are kept per
// span kind, so a span costs two clock reads and a few adds; the first
// 200 000 spans are also appended raw and written out at the end as a
// Chrome trace.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanId : int {
  kIm2col,
  kCol2im,
  kIm2col1d,
  kCol2im1d,
  kGemmNT,
  kGemmTN,
  kGemmNN,
  kConv2d,
  kConv1d,
  kBatchNorm,
  kPool,
  kRnn,
  kLinear,
  kOther,  // activations, embedding, flatten, dropout, residual add
  kLoss,
  kSgdStep,
  kStep,
  kCount,
};
inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanId::kCount);

const char* span_name(SpanId id);

struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0;  // summed durations
  double self_s = 0;   // summed durations minus direct children
  double flops = 0;    // GEMM spans: 2*m*n*k per call
};
using SpanTable = std::array<SpanTotals, kSpanKinds>;

/// One thread's stack of open spans, fed explicit nanosecond timestamps so
/// the self-time rule is testable without a clock.
class SpanStack {
 public:
  void open(SpanId id, std::int64_t t_ns);
  /// Closes the innermost open span; returns its [start, end] duration.
  std::int64_t close(std::int64_t t_ns, double flops = 0);
  [[nodiscard]] std::size_t depth() const noexcept { return frames_.size(); }
  [[nodiscard]] SpanId innermost_id() const { return frames_.back().id; }
  [[nodiscard]] std::int64_t innermost_start() const {
    return frames_.back().start_ns;
  }
  SpanTable totals{};

 private:
  struct Frame {
    SpanId id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> frames_;
};

/// Process-wide switch; spans opened while it is off record nothing.
void set_tracing(bool on);
[[nodiscard]] bool tracing() noexcept;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanId id, double flops = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  double flops_;
};

void add_into(SpanTable& into, const SpanTable& from);

/// Sums every thread's totals (live and exited) and zeroes them. Call only
/// when no traced work is running: live threads' tables are read unlocked.
SpanTable collect_and_reset();

/// Writes the retained raw spans as Chrome trace-event JSON.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench
