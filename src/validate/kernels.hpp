// Refutation microkernels: workloads whose hardware event counts are known
// analytically from the machine's documented semantics, so a measured count
// either confirms the counter or refutes it. Each kernel declares the
// expectations it can defend:
//
//   lo == hi  — analytically *exact* count (streaming loads over a known
//               number of cachelines, pointer chases with exact load counts,
//               working sets sized to a cache level for exact hit/miss
//               splits, cross-node touch loops with exact remote counts)
//   lo <  hi  — analytic tolerance band (events with modelled randomness,
//               e.g. page-walk latency jitter or branch predictor state)
//
// Events a kernel cannot defend are simply omitted — the committed golden
// counts (harness.hpp) still pin their exact simulated values, so drift is
// caught by the sim-boundary gate even where no closed form exists.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "os/affinity.hpp"
#include "sim/machine.hpp"
#include "trace/runner.hpp"
#include "util/types.hpp"

namespace npat::validate {

/// Inclusive expected-count band for one event; exact when lo == hi.
struct Expectation {
  sim::Event event = sim::Event::kCycles;
  double lo = 0.0;
  double hi = 0.0;

  static Expectation exact(sim::Event event, double count) {
    return {event, count, count};
  }
  static Expectation band(sim::Event event, double lo, double hi) {
    return {event, lo, hi};
  }
  bool is_exact() const noexcept { return lo == hi; }
};

/// One refutation kernel: a program plus the analytic expectations that
/// hold for it on a given machine configuration.
struct KernelSpec {
  std::string name;
  std::string description;
  /// Kernels needing cross-node traffic skip machines with fewer nodes.
  u32 min_nodes = 1;
  os::AffinityPolicy affinity = os::AffinityPolicy::kCompact;
  /// Adjusts the machine config before construction (e.g. disabling the
  /// prefetcher for kernels whose analytics need a quiet hierarchy).
  /// Must only touch the fields it needs — the harness relies on the rest
  /// of the config (including any counter mutation) passing through.
  std::function<void(sim::MachineConfig&)> prepare;
  /// Runs against the freshly built machine before the program (e.g. PEBS
  /// arming); optional.
  std::function<void(sim::Machine&)> arm;
  /// Runs after the program completes, before counters are read (e.g.
  /// injecting software events); optional.
  std::function<void(sim::Machine&)> post;
  /// Builds a fresh program (fresh shared state) for one run.
  std::function<trace::Program()> make_program;
  /// Expectations for this kernel on `config` (topology-dependent counts
  /// like interconnect flits consult it).
  std::function<std::vector<Expectation>(const sim::MachineConfig&)> expects;
};

/// The full refutation suite, in a fixed documented order. Together the
/// kernels cover every event in the registry with at least one check.
const std::vector<KernelSpec>& kernel_suite();

/// Suite entry by name; throws util::CheckError on unknown names.
const KernelSpec& kernel_by_name(const std::string& name);

}  // namespace npat::validate
