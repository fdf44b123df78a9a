// Generic HPC kernels used by examples, tests and topology experiments:
// STREAM-style triad and a GUPS-style random-access kernel. All are
// thread-count and placement parameterized.
#pragma once

#include "trace/runner.hpp"

namespace npat::workloads {

struct StreamParams {
  u32 threads = 4;
  usize elements_per_thread = 1 << 16;  // doubles per array per thread
  u32 iterations = 4;
  /// kFirstTouch gives each thread local arrays; kBind node 0 recreates the
  /// classic "all memory on the master's node" mistake.
  os::PagePolicy placement = os::PagePolicy::kFirstTouch;
};

/// a[i] = b[i] + s * c[i], the bandwidth-bound STREAM triad.
trace::Program stream_triad_program(const StreamParams& params);

struct GupsParams {
  u32 threads = 2;
  usize table_bytes = 8 * 1024 * 1024;
  u64 updates_per_thread = 100000;
  os::PagePolicy placement = os::PagePolicy::kInterleave;
};

/// Random read-modify-write updates over a big shared table.
trace::Program gups_program(const GupsParams& params);

}  // namespace npat::workloads
