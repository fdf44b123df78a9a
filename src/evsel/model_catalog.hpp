// Catalogue of historical models of parallel computation (paper §II,
// Fig. 2): the three eras — shared bus, cluster/message passing, and
// hierarchical memory — plus the NUMA-specific models of §II-D. Rendered
// by bench/fig2_model_timeline as the timeline figure.
#pragma once

#include <string>
#include <string_view>

namespace npat::evsel {

enum class ModelEra : int {
  kSharedBus,
  kClusterMessagePassing,
  kHierarchicalMemory,
  kNuma,
};

struct ModelEntry {
  std::string_view name;
  int year;
  ModelEra era;
  std::string_view note;
};

std::string_view era_name(ModelEra era);

/// ASCII timeline grouped by era, ordered by year (Fig. 2 layout).
std::string render_model_timeline();

}  // namespace npat::evsel
