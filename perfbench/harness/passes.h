/**
 * @file
 * One pass = every job of a workload, run once. Three ways to run it:
 *  - runnerPass: SweepRunner::runChecked on the workload's thread count
 *    (the end-to-end path of fig13, xgboost_udp and mysql_fdip);
 *  - directPass: the same jobs driven through Cpu's public API with the
 *    self-profiler on, one span per call (the traced layer pass);
 *  - tcpPass: a SweepCoordinator serving the jobs over TCP to worker
 *    processes (the end-to-end path of fig13_tcp).
 */

#ifndef PERFBENCH_PASSES_H
#define PERFBENCH_PASSES_H

#include <memory>
#include <string>
#include <vector>

#include "obs/status.h"
#include "sim/runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/** The workload's Programs, built once at set-up for the direct pass. */
struct ProgramSet
{
    std::vector<std::unique_ptr<const udp::Program>> programs;
    /** Index into programs for each job. */
    std::vector<std::size_t> jobProgram;
};

struct PointResult
{
    bool ok = false;
    /** reportToJsonLine() bytes of the point's Report (ok only). */
    std::string line;
    /** "<kind>: <message>" of a failed point. */
    std::string error;
};

struct PassResult
{
    double wallSec = 0.0;
    /** CPU seconds of this process plus any worker processes. */
    double cpuSec = 0.0;
    /** Sum of the worker processes' peak RSS, MiB (tcp only). */
    double workerRssMb = 0.0;
    std::vector<PointResult> points;
    /** Reports in job order (default-constructed for failed points). */
    std::vector<udp::Report> reports;

    // runnerPass: worker-seconds with a job running / with none left.
    double poolBusySec = 0.0;
    double poolIdleSec = 0.0;

    // directPass: simulated cycles including warm-up.
    std::uint64_t simCycles = 0;

    // tcpPass: summed worker wall minus CPU, and the last STATUS seen.
    double workerIdleSec = 0.0;
    bool haveStatus = false;
    udp::obs::SweepStatus status;
};

PassResult runnerPass(const Workload& w,
                      const std::vector<udp::SweepJob>& jobs);

/** @p rowsPath prefix of the per-thread Report sink files. */
PassResult directPass(const Workload& w,
                      const std::vector<udp::SweepJob>& jobs,
                      const ProgramSet& programs, Tracer& tr, unsigned pass,
                      const std::string& rowsPath);

/**
 * Serves @p jobs from an in-process coordinator on an ephemeral
 * localhost port to w.threads worker processes (this executable with
 * --role worker). With @p pollStatus, udp_top --once --json polls the
 * STATUS surface until the coordinator closes.
 */
PassResult tcpPass(const Workload& w, const std::vector<udp::SweepJob>& jobs,
                   std::uint64_t seed, Tracer& tr, unsigned pass,
                   bool pollStatus);

/** The --role worker entry point; returns the process exit code. */
int workerMain(const Workload& w, std::uint64_t seed,
               const std::string& endpoint, const std::string& name);

} // namespace perfbench

#endif // PERFBENCH_PASSES_H
