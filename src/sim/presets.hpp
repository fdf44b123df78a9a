// Ready-made machine configurations, including the paper's Table I testbed.
#pragma once

#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace npat::sim {

struct SystemSpec {
  std::string server_model;
  std::string processor;
  std::string numa_topology;
  std::string memory;
  std::string operating_system;
  std::string kernel_version;
};

/// The evaluation system of the paper's Table I: HPE ProLiant DL580 Gen9,
/// 4× Xeon E7-8890v3 @ 2.4 GHz, fully interconnected, 4 × 32 GiB.
/// `cores_per_node` defaults to 18 (the E7-8890v3); benches use fewer
/// simulated cores for speed without changing the topology shape.
MachineConfig hpe_dl580_gen9(u32 cores_per_node = 18);

/// Descriptive metadata matching Table I (with the simulator substituted
/// for Ubuntu/the kernel).
SystemSpec hpe_dl580_gen9_spec();

/// A small 2-socket machine for fast tests.
MachineConfig dual_socket_small(u32 cores_per_node = 2);

/// Single-node UMA machine (baseline: no remote accesses possible).
MachineConfig uma_single_node(u32 cores = 4);

/// 8-socket twisted-cube machine (paper outlook: larger topologies).
MachineConfig eight_socket_cube(u32 cores_per_node = 4);

/// All presets by name (used by example CLIs): "dl580", "dual", "uma",
/// "cube8". Throws CheckError for unknown names.
MachineConfig preset_by_name(const std::string& name);

}  // namespace npat::sim
