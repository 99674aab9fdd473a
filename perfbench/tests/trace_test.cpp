// Tests of span self time (src/trace.hpp).
#include "trace.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

const SpanTotals& at(const SpanTable& t, SpanId id) {
  return t[static_cast<std::size_t>(id)];
}

const SpanTotals& at(const SpanStack& s, SpanId id) { return at(s.totals, id); }

TEST(SpanStack, SelfTimeSubtractsDirectChildren) {
  SpanStack s;
  s.open(SpanId::kStep, 0);
  s.open(SpanId::kConv2d, 10);
  s.open(SpanId::kIm2col, 12);
  EXPECT_EQ(s.close(20), 8);   // im2col: 8 ns, no children
  s.open(SpanId::kGemmNT, 20);
  s.close(50, 1000);           // gemm: 30 ns
  EXPECT_EQ(s.close(60), 50);  // conv2d: 50 ns, 38 ns in children
  s.open(SpanId::kSgdStep, 70);
  s.close(90);
  EXPECT_EQ(s.close(100), 100);
  EXPECT_EQ(s.depth(), 0U);

  EXPECT_DOUBLE_EQ(at(s, SpanId::kConv2d).total_s, 50e-9);
  EXPECT_DOUBLE_EQ(at(s, SpanId::kConv2d).self_s, 12e-9);
  EXPECT_DOUBLE_EQ(at(s, SpanId::kIm2col).self_s, 8e-9);
  EXPECT_DOUBLE_EQ(at(s, SpanId::kGemmNT).flops, 1000);
  // The step's self time excludes its direct children only (conv2d and the
  // SGD step), not the grandchildren a second time.
  EXPECT_DOUBLE_EQ(at(s, SpanId::kStep).self_s, 30e-9);
  // Self times of all spans sum to the root's duration.
  double self = 0;
  for (const SpanTotals& t : s.totals) self += t.self_s;
  EXPECT_DOUBLE_EQ(self, 100e-9);
}

TEST(SpanStack, RepeatedSpansAccumulate) {
  SpanStack s;
  for (int i = 0; i < 3; ++i) {
    s.open(SpanId::kBatchNorm, i * 10);
    s.close(i * 10 + 4);
  }
  EXPECT_EQ(at(s, SpanId::kBatchNorm).count, 3);
  EXPECT_DOUBLE_EQ(at(s, SpanId::kBatchNorm).total_s, 12e-9);
}

TEST(ScopedSpan, RecordsOnlyWhileTracing) {
  (void)collect_and_reset();
  { ScopedSpan off(SpanId::kLinear); }
  EXPECT_EQ(at(collect_and_reset(), SpanId::kLinear).count, 0);
  set_tracing(true);
  {
    ScopedSpan outer(SpanId::kStep);
    ScopedSpan inner(SpanId::kLinear);
  }
  set_tracing(false);
  const SpanTable t = collect_and_reset();
  EXPECT_EQ(t[static_cast<std::size_t>(SpanId::kLinear)].count, 1);
  EXPECT_EQ(t[static_cast<std::size_t>(SpanId::kStep)].count, 1);
  EXPECT_LE(t[static_cast<std::size_t>(SpanId::kStep)].self_s,
            t[static_cast<std::size_t>(SpanId::kStep)].total_s);
}

}  // namespace
}  // namespace perfbench
