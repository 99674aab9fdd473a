// Linker wrappers (ld --wrap, see CMakeLists.txt) around the tensor module's
// conv-lowering and GEMM entry points, linked into perfbench_traced
// only. Every call from the library's nn layers into these functions goes
// through a span here, so tensor time nests under the nn span that caused
// it, inside real jobs as well as in the step replay. With tracing off a
// wrapper costs one relaxed load.
#include <cstdint>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "trace.hpp"

using edgetune::Conv1dGeometry;
using edgetune::Conv2dGeometry;
using edgetune::GemmEpilogue;
using edgetune::GemmLayout;
using edgetune::Tensor;
using perfbench::ScopedSpan;
using perfbench::SpanId;

#define PERFBENCH_REAL(sym) __asm__("__real_" #sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" #sym)

void real_gemm(GemmLayout, std::int64_t, std::int64_t, std::int64_t,
               const float*, const float*, float*, bool, const GemmEpilogue*)
    PERFBENCH_REAL(_ZN8edgetune4gemmENS_10GemmLayoutElllPKfS2_PfbPKNS_12GemmEpilogueE);
void wrap_gemm(GemmLayout, std::int64_t, std::int64_t, std::int64_t,
               const float*, const float*, float*, bool, const GemmEpilogue*)
    PERFBENCH_WRAP(_ZN8edgetune4gemmENS_10GemmLayoutElllPKfS2_PfbPKNS_12GemmEpilogueE);

void real_im2col_into(const Tensor&, const Conv2dGeometry&, float*)
    PERFBENCH_REAL(_ZN8edgetune11im2col_intoERKNS_6TensorERKNS_14Conv2dGeometryEPf);
void wrap_im2col_into(const Tensor&, const Conv2dGeometry&, float*)
    PERFBENCH_WRAP(_ZN8edgetune11im2col_intoERKNS_6TensorERKNS_14Conv2dGeometryEPf);

Tensor real_col2im(const float*, std::int64_t, const Conv2dGeometry&)
    PERFBENCH_REAL(_ZN8edgetune6col2imEPKflRKNS_14Conv2dGeometryE);
Tensor wrap_col2im(const float*, std::int64_t, const Conv2dGeometry&)
    PERFBENCH_WRAP(_ZN8edgetune6col2imEPKflRKNS_14Conv2dGeometryE);

void real_im2col_1d_into(const Tensor&, const Conv1dGeometry&, float*)
    PERFBENCH_REAL(_ZN8edgetune14im2col_1d_intoERKNS_6TensorERKNS_14Conv1dGeometryEPf);
void wrap_im2col_1d_into(const Tensor&, const Conv1dGeometry&, float*)
    PERFBENCH_WRAP(_ZN8edgetune14im2col_1d_intoERKNS_6TensorERKNS_14Conv1dGeometryEPf);

Tensor real_col2im_1d(const float*, std::int64_t, const Conv1dGeometry&)
    PERFBENCH_REAL(_ZN8edgetune9col2im_1dEPKflRKNS_14Conv1dGeometryE);
Tensor wrap_col2im_1d(const float*, std::int64_t, const Conv1dGeometry&)
    PERFBENCH_WRAP(_ZN8edgetune9col2im_1dEPKflRKNS_14Conv1dGeometryE);

void wrap_gemm(GemmLayout layout, std::int64_t m, std::int64_t n,
               std::int64_t k, const float* a, const float* b, float* c,
               bool accumulate, const GemmEpilogue* epilogue) {
  const SpanId id = layout == GemmLayout::kNT   ? SpanId::kGemmNT
                    : layout == GemmLayout::kTN ? SpanId::kGemmTN
                                                : SpanId::kGemmNN;
  ScopedSpan span(id, 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                          static_cast<double>(k));
  real_gemm(layout, m, n, k, a, b, c, accumulate, epilogue);
}

void wrap_im2col_into(const Tensor& input, const Conv2dGeometry& geo,
                      float* cols) {
  ScopedSpan span(SpanId::kIm2col);
  real_im2col_into(input, geo, cols);
}

Tensor wrap_col2im(const float* cols, std::int64_t batch,
                   const Conv2dGeometry& geo) {
  ScopedSpan span(SpanId::kCol2im);
  return real_col2im(cols, batch, geo);
}

void wrap_im2col_1d_into(const Tensor& input, const Conv1dGeometry& geo,
                         float* cols) {
  ScopedSpan span(SpanId::kIm2col1d);
  real_im2col_1d_into(input, geo, cols);
}

Tensor wrap_col2im_1d(const float* cols, std::int64_t batch,
                      const Conv1dGeometry& geo) {
  ScopedSpan span(SpanId::kCol2im1d);
  return real_col2im_1d(cols, batch, geo);
}
