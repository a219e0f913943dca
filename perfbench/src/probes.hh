/**
 * @file
 * Layer probes for the traced run: each one calls one layer's hot
 * primitive directly, from outside, on fixed inputs made from the
 * seed, inside spans, and turns the host times and simulated counts
 * into that layer's per-layer metrics (README.md has the table of
 * which end-to-end metric each should move, on which workload).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <vector>

#include "workloads.hh"

namespace perfbench
{

/** Run every layer probe; returns the per-layer metrics. */
std::vector<Named> runLayerProbes(const BenchOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
