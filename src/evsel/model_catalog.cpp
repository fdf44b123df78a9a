#include "evsel/model_catalog.hpp"

#include <algorithm>
#include <vector>

#include "util/strings.hpp"

namespace npat::evsel {

namespace {

// clang-format off
constexpr ModelEntry kModels[] = {
    // Era 1: shared bus.
    {"PRAM", 1978, ModelEra::kSharedBus, "unit-cost lockstep shared memory"},
    {"CRCW PRAM", 1988, ModelEra::kSharedBus, "concurrent read/concurrent write refinement"},
    {"APRAM", 1989, ModelEra::kSharedBus, "asynchronous PRAM"},
    {"Asynchronous PRAM", 1989, ModelEra::kSharedBus, "zero-cost synchronization steps"},
    {"XPRAM", 1993, ModelEra::kSharedBus, "bulk-synchronous PRAM simulation"},
    {"YPRAM", 1992, ModelEra::kSharedBus, "hierarchical PRAM subunits"},
    {"HPRAM", 1992, ModelEra::kSharedBus, "hierarchical PRAM with inefficiency factors"},
    {"LPRAM", 1990, ModelEra::kSharedBus, "latency-aware PRAM"},
    {"BPRAM", 1990, ModelEra::kSharedBus, "bandwidth-aware PRAM"},
    {"QSM", 1997, ModelEra::kSharedBus, "queued shared memory (bus congestion)"},
    {"QRQW PRAM", 1994, ModelEra::kSharedBus, "queued read/queued write"},
    {"PRAM(m)", 1996, ModelEra::kSharedBus, "bounded shared-memory bandwidth"},

    // Era 2: cluster / message passing.
    {"BSP", 1989, ModelEra::kClusterMessagePassing, "supersteps + global barriers"},
    {"Postal", 1992, ModelEra::kClusterMessagePassing, "message latency as postal delay"},
    {"LogP", 1993, ModelEra::kClusterMessagePassing, "latency/overhead/gap/processors"},
    {"LogGP", 1995, ModelEra::kClusterMessagePassing, "LogP + long-message bandwidth"},
    {"LogPC", 1998, ModelEra::kClusterMessagePassing, "LogP + network contention"},
    {"CLUMPS", 1997, ModelEra::kClusterMessagePassing, "clusters of SMPs"},
    {"BDM", 1996, ModelEra::kClusterMessagePassing, "block distributed memory"},
    {"BSPRAM", 1998, ModelEra::kClusterMessagePassing, "BSP fused with PRAM memory refinements"},

    // Era 3: hierarchical memory.
    {"HMM", 1987, ModelEra::kHierarchicalMemory, "hierarchical memory model"},
    {"UPMH", 1994, ModelEra::kHierarchicalMemory, "uniform memory hierarchy"},
    {"DRAM(h,k)", 1997, ModelEra::kHierarchicalMemory, "multi-level cache cost functions"},
    {"Memory LogP", 2003, ModelEra::kHierarchicalMemory, "cache layers as message passing"},
    {"NHBL", 2000, ModelEra::kHierarchicalMemory, "non-uniform hierarchical blocks"},
    {"HPM", 2002, ModelEra::kHierarchicalMemory, "hierarchical performance model"},
    {"MBRAM", 2003, ModelEra::kHierarchicalMemory, "memory-bounded RAM"},
    {"LognP", 2003, ModelEra::kHierarchicalMemory, "hierarchical LogP generalization"},

    // NUMA-specific models (§II-D).
    {"kappaNUMA", 2001, ModelEra::kNuma, "BSP tree hierarchy of SMP nodes"},
    {"Braithwaite", 2011, ModelEra::kNuma, "measured interconnect equivalence classes"},
    {"PRAM-NUMA", 2010, ModelEra::kNuma, "low-TLP workloads mapped onto PRAM"},
    {"TMM", 2014, ModelEra::kNuma, "threaded many-core latency hiding"},
    {"Tudor", 2011, ModelEra::kNuma, "event-counter speedup model for UMA/NUMA"},
    {"Cho", 2016, ModelEra::kNuma, "online scalability prediction (OpenMP/OpenCL)"},
};
// clang-format on

}  // namespace

std::string_view era_name(ModelEra era) {
  switch (era) {
    case ModelEra::kSharedBus: return "Shared bus";
    case ModelEra::kClusterMessagePassing: return "Cluster / message passing";
    case ModelEra::kHierarchicalMemory: return "Hierarchical memory";
    case ModelEra::kNuma: return "NUMA models";
  }
  return "?";
}

std::string render_model_timeline() {
  std::string out = "Historic models of parallel computation (paper Fig. 2)\n";
  for (const ModelEra era : {ModelEra::kSharedBus, ModelEra::kClusterMessagePassing,
                             ModelEra::kHierarchicalMemory, ModelEra::kNuma}) {
    out += "\n== " + std::string(era_name(era)) + " ==\n";
    std::vector<ModelEntry> entries;
    for (const auto& entry : kModels) {
      if (entry.era == era) entries.push_back(entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const ModelEntry& a, const ModelEntry& b) { return a.year < b.year; });
    for (const auto& entry : entries) {
      out += util::format("  %d  %-18s %s\n", entry.year, std::string(entry.name).c_str(),
                          std::string(entry.note).c_str());
    }
  }
  return out;
}

}  // namespace npat::evsel
