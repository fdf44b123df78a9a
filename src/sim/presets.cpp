#include "sim/presets.hpp"

#include "util/check.hpp"

namespace npat::sim {

MachineConfig hpe_dl580_gen9(u32 cores_per_node) {
  MachineConfig config;
  config.topology = make_fully_connected(4, cores_per_node);
  config.topology.model_name = "HPE ProLiant DL580 Gen9 Server";
  config.topology.processor_name = "Intel Xeon E7-8890 v3";
  config.topology.frequency_ghz = 2.4;
  config.topology.memory_per_node_bytes = GiB(32);
  config.topology.memory_frequency_mhz = 1600;
  // E7-8890v3 cache geometry (L3 scaled per socket).
  config.l1 = {"L1D", KiB(32), 8, 64, 4};
  config.l2 = {"L2", KiB(256), 8, 64, 12};
  config.l3 = {"L3", MiB(45), 16, 64, 60};
  return config;
}

SystemSpec hpe_dl580_gen9_spec() {
  return SystemSpec{
      "HPE ProLiant DL580 Gen9 Server",
      "4x Intel Xeon E7-8890 v3 @ 2.4 GHz",
      "Fully interconnected",
      "4 x 32 GiB RAM @ 1600 MHz",
      "npat NUMA machine simulator",
      "npat 1.0.0",
  };
}

MachineConfig dual_socket_small(u32 cores_per_node) {
  MachineConfig config;
  config.topology = make_fully_connected(2, cores_per_node);
  config.topology.model_name = "dual-socket-small";
  config.topology.memory_per_node_bytes = GiB(4);
  config.l3 = {"L3", MiB(4), 16, 64, 60};
  return config;
}

MachineConfig uma_single_node(u32 cores) {
  MachineConfig config;
  config.topology = make_fully_connected(1, cores);
  config.topology.model_name = "uma-single-node";
  config.topology.memory_per_node_bytes = GiB(8);
  config.l3 = {"L3", MiB(8), 16, 64, 60};
  return config;
}

MachineConfig eight_socket_cube(u32 cores_per_node) {
  MachineConfig config;
  config.topology = make_twisted_cube(cores_per_node);
  config.topology.memory_per_node_bytes = GiB(16);
  config.l3 = {"L3", MiB(8), 16, 64, 60};
  return config;
}

MachineConfig preset_by_name(const std::string& name) {
  if (name == "dl580") return hpe_dl580_gen9(4);  // simulation-friendly core count
  if (name == "dl580-full") return hpe_dl580_gen9(18);
  if (name == "dual") return dual_socket_small();
  if (name == "uma") return uma_single_node();
  if (name == "cube8") return eight_socket_cube();
  NPAT_CHECK_MSG(false, "unknown machine preset: " + name);
  return MachineConfig{};
}

}  // namespace npat::sim
