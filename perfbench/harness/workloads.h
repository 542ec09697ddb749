/**
 * @file
 * The benchmark's workloads (README.md, "Workloads"): which applications
 * run under which configurations, at which instruction window, on how
 * many threads or worker processes, and how the --seed argument becomes
 * every Profile::seed.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.h"
#include "workload/profile.h"
#include "workload/program.h"

namespace perfbench {

/** Seed whose Report digests are pinned under perfbench/digests/. */
inline constexpr std::uint64_t kDefaultSeed = 1;
/** Held-out seed: never used while tuning; re-check claims on it. */
inline constexpr std::uint64_t kHeldOutSeed = 977;

struct Workload
{
    std::string name;
    /** Pinned-digest file stem (fig13_tcp runs fig13's points). */
    std::string pinSet;
    /** Simulation threads (in process) or worker processes (tcp). */
    unsigned threads = 1;
    /** Served through a TCP sweep coordinator to worker processes. */
    bool tcp = false;
    std::uint64_t warmupInstrs = 0;
    std::uint64_t measureInstrs = 0;
    /** Application (profile) names, in job order. */
    std::vector<std::string> apps;
    /** Generated Programs per application, each from its own derived
     *  seed: one program's host cost varies ~10% from seed to seed, so
     *  the serial workloads average many. */
    unsigned instances = 1;
    /** Configuration labels (see configFor()), in job order per app. */
    std::vector<std::string> configs;
};

const std::vector<Workload>& workloads();

/** The workload named @p name, or null. */
const Workload* findWorkload(const std::string& name);

/** The SimConfig preset behind a configuration label. */
udp::SimConfig configFor(const std::string& label);

/**
 * The workload's jobs (app-major, then config) with every Profile::seed
 * derived from @p seed, so the simulator only sees generated Programs.
 */
std::vector<udp::SweepJob> makeJobs(const Workload& w, std::uint64_t seed);

/** The distinct profiles of @p jobs, first-use order. */
std::vector<udp::Profile> distinctProfiles(
    const std::vector<udp::SweepJob>& jobs);

/** Index into distinctProfiles() for each job. */
std::vector<std::size_t> profileIndexOfJobs(
    const std::vector<udp::SweepJob>& jobs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
