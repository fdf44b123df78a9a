// Example: quantify thread/data placement effects with EvSel — the kind of
// optimization study the paper's two-step strategy targets. The STREAM
// triad runs under two placements:
//   * first-touch  (each thread's arrays on its own node — the NUMA-aware
//     pattern the paper's SIFT implementation uses), vs
//   * master-touch (all arrays bound to node 0 — the classic mistake).
// EvSel's run comparison surfaces exactly which indicators expose the
// problem (remote loads, interconnect flits, stall cycles), and the
// affinity policy is swept on top.
#include <cstdio>

#include "advisor/advisor.hpp"
#include "advisor/report.hpp"
#include "evsel/collector.hpp"
#include "evsel/compare.hpp"
#include "evsel/imbalance.hpp"
#include "evsel/report.hpp"
#include "sim/presets.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/kernels.hpp"

int main(int argc, char** argv) {
  using namespace npat;

  i64 threads = 8;
  i64 elements = 1 << 15;
  i64 repetitions = 3;
  bool advise = false;
  util::Cli cli("Placement study: first-touch vs master-touch STREAM triad");
  cli.add_flag("threads", &threads, "worker threads");
  cli.add_flag("elements", &elements, "doubles per array per thread");
  cli.add_flag("reps", &repetitions, "repetitions per configuration");
  cli.add_flag("advise", &advise, "run the placement advisor on the master-touch triad");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  evsel::Collector collector(sim::hpe_dl580_gen9(4));
  evsel::CollectOptions options;
  options.repetitions = static_cast<u32>(repetitions);
  options.affinity = os::AffinityPolicy::kScatter;
  options.events = {
      sim::Event::kCycles,          sim::Event::kStallCyclesMem,
      sim::Event::kMemLoadLocalDram, sim::Event::kMemLoadRemoteDram,
      sim::Event::kUncQpiTxFlits,   sim::Event::kUncImcReads,
      sim::Event::kFillBufferRejects, sim::Event::kL3Miss,
  };

  auto triad = [&](os::PagePolicy placement) {
    workloads::StreamParams params;
    params.threads = static_cast<u32>(threads);
    params.elements_per_thread = static_cast<usize>(elements);
    params.placement = placement;
    return workloads::stream_triad_program(params);
  };

  const auto local = collector.measure(
      "first-touch", [&] { return triad(os::PagePolicy::kFirstTouch); }, options);
  const auto master = collector.measure(
      "master-touch", [&] { return triad(os::PagePolicy::kBind); }, options);

  const auto comparison = evsel::compare(local, master);
  evsel::ReportOptions report;
  report.include_all_events = true;
  report.show_descriptions = false;
  std::fputs(evsel::render_comparison(comparison, report).c_str(), stdout);

  const double slowdown = comparison.row(sim::Event::kCycles).test.relative_delta;
  std::printf("\nmaster-touch costs %s cycles; interconnect flits went from %s to %s\n",
              util::percent_delta(slowdown).c_str(),
              util::si_scaled(comparison.row(sim::Event::kUncQpiTxFlits).test.mean_a).c_str(),
              util::si_scaled(comparison.row(sim::Event::kUncQpiTxFlits).test.mean_b).c_str());

  // Affinity sweep under first-touch: compact vs scatter.
  std::puts("");
  util::Table affinity_table({"affinity", "cycles", "remote loads", "QPI flits"});
  affinity_table.set_title("affinity policy sweep (first-touch placement)");
  for (usize c = 1; c < 4; ++c) affinity_table.set_align(c, util::Align::kRight);
  for (const auto policy : {os::AffinityPolicy::kCompact, os::AffinityPolicy::kScatter}) {
    evsel::CollectOptions sweep_options = options;
    sweep_options.affinity = policy;
    const auto m = collector.measure(
        os::affinity_name(policy), [&] { return triad(os::PagePolicy::kFirstTouch); },
        sweep_options);
    affinity_table.add_row({os::affinity_name(policy),
                            util::si_scaled(m.mean(sim::Event::kCycles)),
                            util::si_scaled(m.mean(sim::Event::kMemLoadRemoteDram)),
                            util::si_scaled(m.mean(sim::Event::kUncQpiTxFlits))});
  }
  std::fputs(affinity_table.render().c_str(), stdout);

  // perf's §II-F promise, through the toolkit: per-node load and an
  // imbalance verdict for the master-touch configuration.
  sim::Machine machine(sim::hpe_dl580_gen9(4));
  trace::Run run(machine, {.affinity = os::AffinityPolicy::kScatter});
  run.run(triad(os::PagePolicy::kBind));
  std::puts("");
  std::fputs(evsel::node_imbalance(machine).render().c_str(), stdout);

  // --advise: hand the broken configuration to the placement advisor and
  // let it close the loop — profile, rank candidate placements, replay the
  // unmodified workload under the best ones, and print the before/after
  // delta table with the counter-signature rationale.
  if (advise) {
    advisor::Advisor adv(sim::hpe_dl580_gen9(4));
    advisor::AdvisorOptions advise_options;
    advise_options.baseline.affinity = os::AffinityPolicy::kScatter;
    advise_options.replay_repetitions = static_cast<u32>(repetitions);
    const auto rec =
        adv.advise([&] { return triad(os::PagePolicy::kBind); }, advise_options);
    std::puts("");
    std::fputs(advisor::render_recommendation(rec).c_str(), stdout);
  }
  return 0;
}
