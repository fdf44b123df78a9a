#include "workloads/kernels.hpp"

#include <memory>

#include "util/check.hpp"

namespace npat::workloads {

namespace {

trace::SimTask stream_body(trace::ThreadContext& ctx, StreamParams params) {
  const usize bytes = params.elements_per_thread * sizeof(double);
  const VirtAddr a = ctx.alloc(bytes, params.placement, 0);
  const VirtAddr b = ctx.alloc(bytes, params.placement, 0);
  const VirtAddr c = ctx.alloc(bytes, params.placement, 0);

  // First touch initializes placement.
  for (usize i = 0; i < params.elements_per_thread; ++i) {
    co_await ctx.store(b + i * sizeof(double));
    co_await ctx.store(c + i * sizeof(double));
  }
  co_await ctx.barrier(0);

  for (u32 iter = 0; iter < params.iterations; ++iter) {
    for (usize i = 0; i < params.elements_per_thread; ++i) {
      co_await ctx.load(b + i * sizeof(double));
      co_await ctx.load(c + i * sizeof(double));
      co_await ctx.compute(2);  // fused multiply-add + index math
      co_await ctx.store(a + i * sizeof(double));
    }
    co_await ctx.barrier(1 + iter);
  }
}

trace::SimTask gups_body(trace::ThreadContext& ctx, GupsParams params,
                         std::shared_ptr<VirtAddr> table) {
  const usize lines = params.table_bytes / kCacheLineBytes;
  if (ctx.index() == 0) {
    *table = ctx.alloc(params.table_bytes, params.placement, 0);
    for (usize i = 0; i < lines; ++i) co_await ctx.store(*table + i * kCacheLineBytes);
  }
  co_await ctx.barrier(0);

  for (u64 u = 0; u < params.updates_per_thread; ++u) {
    const u64 line = ctx.rng().below(lines);
    const VirtAddr addr = *table + line * kCacheLineBytes;
    co_await ctx.load(addr);
    co_await ctx.compute(1);  // xor update
    co_await ctx.store(addr);
  }
  co_await ctx.barrier(1);
}

}  // namespace

trace::Program stream_triad_program(const StreamParams& params) {
  NPAT_CHECK_MSG(params.threads >= 1, "need at least one thread");
  return trace::Program::homogeneous(params.threads, [params](trace::ThreadContext& ctx) {
    return stream_body(ctx, params);
  }).name_process(1, "stream");
}

trace::Program gups_program(const GupsParams& params) {
  NPAT_CHECK_MSG(params.threads >= 1, "need at least one thread");
  NPAT_CHECK_MSG(params.table_bytes >= kPageBytes, "table must cover a page");
  auto table = std::make_shared<VirtAddr>(0);
  return trace::Program::homogeneous(params.threads,
                                     [params, table](trace::ThreadContext& ctx) {
                                       return gups_body(ctx, params, table);
                                     })
      .name_process(1, "gups");
}

}  // namespace npat::workloads
