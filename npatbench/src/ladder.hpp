// Layer ladders: small fixed kernels that time one layer each, in the
// manner of likwid-bench. Every traced run reports them, whatever its
// workload.
//
//  * sim: host ns per retired memory op for kernels pinned to one serving
//    level (the `validate` refutation kernels, plus a cold local-DRAM
//    stream that suite lacks), each checked against its exact counts.
//  * os: host ns per `AddressSpace::translate_ex`, first touch and resident.
//  * memhist: `wire::encode` / `wire::Decoder` throughput on monitor samples.
//  * evsel: `Collector::measure`'s own time, minus the public calls it
//    makes, over a near-empty program on a one-core machine.
#pragma once

#include "report.hpp"

namespace npatbench {

void run_sim_ladder(Metrics& metrics, Checks& checks);
void run_os_ladder(Metrics& metrics, Checks& checks);
void run_wire_ladder(Metrics& metrics, Checks& checks);
void run_evsel_ladder(Metrics& metrics, Checks& checks);

}  // namespace npatbench
