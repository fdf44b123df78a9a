// Extension bench for the paper's Memhist outlook (§VI): "many more
// effects could be investigated, which can now be identified by Memhist:
// Translation Lookaside Buffer (TLB) miss costs, cache coherency protocol
// overhead, costs of remote memory accesses in more complex NUMA
// topologies".
//
// Three experiments:
//  1. coherence overhead — a write-shared GUPS table on two sockets,
//     histogrammed with the PEBS data-source filter set to remote-HITM;
//  2. remote costs in a complex topology — a chase on the 8-socket
//     twisted cube shows separate 1-hop and 2-hop peaks;
//  3. TLB miss costs — identical random loads over a small vs huge page
//     working set; the latency delta prices the page walks.
#include <cstdio>

#include <memory>

#include "memhist/builder.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "workloads/kernels.hpp"
#include "workloads/mlc_remote.hpp"

namespace {

using namespace npat;

memhist::LatencyHistogram run_memhist(sim::Machine& machine, const trace::Program& program,
                                      const memhist::MemhistOptions& options) {
  trace::Run run(machine, {.affinity = os::AffinityPolicy::kScatter});
  memhist::MemhistBuilder builder(machine, run.runner(), options);
  builder.start();
  run.run(program);
  auto histogram = builder.finish();
  memhist::annotate_with_machine_levels(histogram, machine.config());
  return histogram;
}

}  // namespace

int main(int argc, char** argv) {
  i64 updates = 250000;
  i64 chase_steps = 200000;
  util::Cli cli("Memhist extensions: coherence, multi-hop and TLB cost histograms");
  cli.add_flag("updates", &updates, "GUPS updates per thread");
  cli.add_flag("chase-steps", &chase_steps, "pointer-chase steps");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;

  // --- 1. cache-coherence (HITM) overhead --------------------------------
  {
    auto config = sim::dual_socket_small(1);
    config.l3.size_bytes = MiB(1);
    sim::Machine machine(config);

    workloads::GupsParams gups;
    gups.threads = 2;  // scatter: one per socket, write-sharing the table
    gups.table_bytes = KiB(256);  // cache-resident: misses are coherence misses
    gups.updates_per_thread = static_cast<u64>(updates);
    gups.placement = os::PagePolicy::kInterleave;

    memhist::MemhistOptions options;
    // HITM events are sparse; cycle the ladder fast so every threshold
    // samples them (slow cycling aliases the burst structure into the
    // ladder — visible as uncertainty flags).
    options.slice_cycles = 15000;
    options.source_filter = sim::DataSource::kRemoteCacheHitm;
    options.mode = memhist::HistogramMode::kCosts;
    const auto histogram =
        run_memhist(machine, workloads::gups_program(gups), options);
    std::fputs(histogram.render("coherence overhead: remote-HITM loads only").c_str(),
               stdout);
    std::printf("HITM loads identified: %s (every cycle here is coherency protocol cost)\n\n",
                util::si_scaled(histogram.total_occurrences()).c_str());
  }

  // --- 2. remote costs in a complex topology (8-socket twisted cube) ------
  {
    auto config = sim::eight_socket_cube(1);
    config.l3.size_bytes = MiB(1);
    sim::Machine machine(config);

    for (const u32 hops : {1u, 2u}) {
      sim::NodeId target = 0;
      for (sim::NodeId node = 0; node < config.topology.nodes; ++node) {
        if (config.topology.hops(0, node) == hops) {
          target = node;
          break;
        }
      }
      workloads::MlcParams params;
      params.buffer_bytes = MiB(8);
      params.target_node = target;
      params.chase_steps = static_cast<u64>(chase_steps);

      memhist::MemhistOptions options;
      options.slice_cycles = 200000;
      options.source_filter = sim::DataSource::kRemoteDram;
      const auto histogram =
          run_memhist(machine, workloads::mlc_program(params), options);
      const auto peak = histogram.peak_bin();
      std::fputs(histogram
                     .render(util::format("twisted-cube chase, %u hop%s (remote loads only)",
                                          hops, hops == 1 ? "" : "s"))
                     .c_str(),
                 stdout);
      if (peak) {
        std::printf("peak interval lower bound: %llu cycles\n\n",
                    static_cast<unsigned long long>(histogram.bins()[*peak].lo));
      }
    }
  }

  // --- 3. TLB miss costs ---------------------------------------------------
  {
    // Identical cache footprint (16 Ki lines), different page spread:
    // 64 lines/page (TLB-resident) vs 1 line/page (every load misses the
    // STLB). The mean latency delta isolates the page-walk cost.
    auto config = sim::uma_single_node(1);
    sim::Machine machine(config);

    static constexpr usize kTotalLines = 16384;
    auto chase_pages = [&](usize pages, bool huge) {
      const usize lines_per_page = kTotalLines / pages;
      trace::Run run(machine);
      perf::LoadLatencySession session(machine);
      auto body = [pages, lines_per_page, huge](trace::ThreadContext& ctx) -> trace::SimTask {
        const VirtAddr base = huge ? ctx.alloc_huge(pages * kPageBytes)
                                   : ctx.alloc(pages * kPageBytes);
        auto page_rotation = [](u64 page) {
          // Knuth-hash rotation so page-aligned layouts spread over all
          // cache sets (a linear rotation aliases with the set structure).
          return (page * 2654435761ULL) >> 26 & 63;
        };
        for (usize p = 0; p < pages; ++p) {
          for (usize l = 0; l < lines_per_page; ++l) {
            const u64 within = (l + page_rotation(p)) % 64;
            co_await ctx.store(base + p * kPageBytes + within * kCacheLineBytes);
          }
        }
        for (int i = 0; i < 60000; ++i) {
          const u64 line = ctx.rng().below(kTotalLines);
          const u64 page = line / lines_per_page;
          const u64 within = (line % lines_per_page + page_rotation(page)) % 64;
          co_await ctx.load(base + page * kPageBytes + within * kCacheLineBytes);
        }
      };
      session.arm(1, 16);
      run.run(trace::Program::single(body));
      const auto reading = session.disarm();
      double total = 0;
      for (const auto& sample : reading.samples) total += static_cast<double>(sample.latency);
      const double mean = reading.samples.empty()
                              ? 0.0
                              : total / static_cast<double>(reading.samples.size());
      const u64 walks = machine.core_counters(0)[sim::Event::kPageWalks];
      std::printf("  %6zu %s pages x %3zu lines: mean load latency %.1f cycles, "
                  "page walks %s\n",
                  pages, huge ? "huge " : "small", lines_per_page, mean,
                  util::si_scaled(static_cast<double>(walks)).c_str());
      return mean;
    };
    std::puts("TLB miss costs (same 16 Ki-line footprint, different page spread):");
    const double dense = chase_pages(256, false);
    const double sparse = chase_pages(16384, false);
    std::printf("  TLB-miss premium: %.1f cycles per load on average\n", sparse - dense);
    // The remedy: back the sparse spread with 2 MiB huge pages — the whole
    // region fits a handful of TLB entries and the premium disappears.
    const double huge = chase_pages(16384, true);
    std::printf("  with 2 MiB huge pages: premium shrinks to %.1f cycles\n", huge - dense);
  }
  return 0;
}
