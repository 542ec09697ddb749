/**
 * @file
 * Host-speed probe. The reference host's speed drifts by 20-40% over
 * minutes (other tenants share its cores and caches), which moves every
 * timing with it. The probe is a fixed kernel shaped like a cycle-level
 * model; it lives in the benchmark, so a change to the simulator never
 * changes it. Each run times it next to its passes, and the end-to-end
 * times are scaled to the reference host's speed by
 * kProbeRefSec / (the run's median probe time).
 */

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

namespace perfbench {

/** Median probe time on the reference host (4-core 2.1 GHz Xeon VM,
 *  gcc 12 Release build). */
inline constexpr double kProbeRefSec = 0.125;

/**
 * Runs the probe on @p threads threads at once (the workload's own
 * parallelism) and returns the mean seconds one probe took.
 */
double probeSec(unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
