/**
 * @file
 * The distributed sweep service (docs/ROBUSTNESS.md §10).
 *
 * Three pieces sit on top of the TCP work queue (sim/workqueue.h) and
 * the lease state machine (sim/lease.h):
 *
 *   - SweepSpec: a small JSON sweep description (workloads × config
 *     presets) that both the coordinator and every worker expand —
 *     deterministically — into the identical SweepJob vector. The queue
 *     itself only ever carries (hash, index) pairs; job *content* never
 *     crosses the wire, and a worker whose expansion disagrees with a
 *     lease's hash fails it as "spec_mismatch" instead of running the
 *     wrong simulation.
 *
 *   - runSweepWorker(): the worker loop — claim, heartbeat, execute via
 *     runJobChecked() (the exact per-job path of the in-process sweep
 *     engine), push. A coordinator that dies mid-push costs nothing: the
 *     result is flushed to a local shard manifest the coordinator
 *     absorbs on restart.
 *
 *   - SweepCoordinator: serves the batch to workers over TCP, applies
 *     the lease policy (expiry reclaim, bounded
 *     retries with backoff, straggler duplication), checkpoints every
 *     final result to the sweep manifest, and assembles JobResults in
 *     job order. Because completed entries carry reportToJsonLine()
 *     output and that round trip is byte-exact, the merged artifacts of
 *     a distributed run are byte-identical to a serial in-process run
 *     of the same jobs.
 */

#ifndef UDP_SIM_SWEEPD_H
#define UDP_SIM_SWEEPD_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/lease.h"
#include "sim/sweep.h"
#include "sim/workqueue.h"

namespace udp {

// --- sweep spec ------------------------------------------------------------

/** One config axis entry of a SweepSpec. */
struct SpecConfig
{
    /** Artifact label (Report::configName). */
    std::string label;
    /** Preset name: "fdip" (alias "baseline"), "perfect_icache",
     *  "no_prefetch", "udp8k", "udp_infinite", "big_icache40k",
     *  "eip8k". */
    std::string preset;
    /** Optional FTQ depth override (fdip preset only; 0 = preset
     *  default). */
    unsigned ftq = 0;
};

/**
 * A declarative sweep: the cross product of workloads × configs, each
 * run for the same instruction window. Serialized as one JSON object so
 * the coordinator can hand it to workers verbatim (HELLO),
 * and expansion is deterministic on both sides.
 */
struct SweepSpec
{
    std::string name = "sweep";
    std::uint64_t warmupInstrs = 0;
    std::uint64_t measureInstrs = 0;
    /** Profile names; empty or containing "all" = every datacenter
     *  profile, in canonical order. */
    std::vector<std::string> workloads;
    std::vector<SpecConfig> configs;
};

/** Serializes @p spec as one JSON object (stable field order). */
std::string sweepSpecToJson(const SweepSpec& spec);

/** Parses sweepSpecToJson() output (or a hand-written spec file). */
bool sweepSpecFromJson(const std::string& json, SweepSpec* out,
                       std::string* err);

/**
 * Expands @p spec into its SweepJob vector: workload-major cross
 * product, labels from the spec configs. Fails (with @p err) on an
 * unknown workload or preset name. The expansion is deterministic — the
 * job at index i, and therefore sweepJobHash(job, i), is identical in
 * every process given the same spec text.
 */
bool expandSweepSpec(const SweepSpec& spec, std::vector<SweepJob>* out,
                     std::string* err);

// --- worker ----------------------------------------------------------------

/** Worker loop configuration. */
struct WorkerOptions
{
    /** Worker identity (lease bookkeeping + shard file name). */
    std::string name = "worker";
    /** Per-RPC / queue-operation deadline budget, seconds. */
    double rpcTimeoutSec = 5.0;
    /** Sleep between claim attempts when the queue reports NoWork;
     *  0 = use the queue's own retry hint. */
    double pollSec = 0.0;
    /** Directory for the local shard manifest (<name>.shard.jsonl)
     *  that absorbs results the coordinator could not receive.
     *  "" disables local flushing (such results are simply lost and the
     *  lease policy re-runs the job). */
    std::string shardDir;
    bool quiet = false;
    /** Stop after this many executed jobs (0 = until drained/lost);
     *  test hook for forcing work interleavings. */
    std::size_t maxJobs = 0;
    /** Sleep before executing each claimed job, milliseconds; test/CI
     *  hook to widen the window for killing a worker mid-job. */
    unsigned jobDelayMs = 0;
    /** Per-job execution knobs (isolation, limits, dumps) — identical
     *  semantics to the in-process sweep engine. */
    JobExecOptions exec;
};

/** What a worker did before exiting. */
struct WorkerSummary
{
    std::size_t executed = 0;   ///< jobs actually run here
    std::size_t completed = 0;  ///< results the queue recorded
    std::size_t failures = 0;   ///< failed executions pushed
    std::size_t duplicates = 0; ///< results discarded (someone else won)
    std::size_t flushedLocal = 0; ///< results flushed to the shard file
    std::size_t mismatches = 0; ///< leases failed as "spec_mismatch"
    bool queueLost = false;     ///< exited because the queue went away
};

/**
 * Runs the worker loop against @p queue until the sweep drains, the
 * queue is lost, or WorkerOptions::maxJobs is reached. @p jobs must be
 * the deterministic expansion shared with the coordinator; every lease
 * is verified against it by hash before running. A heartbeat thread
 * renews each held lease at ttl/3 while the job executes.
 */
WorkerSummary runSweepWorker(WorkQueue& queue,
                             const std::vector<SweepJob>& jobs,
                             const WorkerOptions& opts);

// --- coordinator -----------------------------------------------------------

/** Coordinator configuration. */
struct CoordinatorOptions
{
    /** Sweep name reported on the status surface (obs/status.h). */
    std::string name = "sweep";
    /** Lease/retry/straggler policy shared with the queue. */
    LeasePolicy policy;
    /** Where workers find the queue: "tcp:HOST:PORT" is served from
     *  this process (PORT 0 binds an ephemeral port — see
     *  SweepCoordinator::endpoint()). */
    std::string endpoint;
    /** Spec JSON served to udp_worker ("" for bench pairing, where both
     *  sides build the job list from identical argv). */
    std::string specJson;
    /** Checkpoint manifest path ("" = none). Every final result is
     *  recorded as it arrives; with resume, completed entries are
     *  absorbed before any work is issued. */
    std::string manifestPath;
    bool resume = false;
    /** Directory scanned for worker shard files (*.shard.jsonl) to
     *  absorb on start and after draining ("" = none). */
    std::string shardDir;
    /** Poll/tick interval, seconds. */
    double pollSec = 0.2;
    bool quiet = false;
    std::function<void(const SweepProgress&)> onProgress;
};

/**
 * The coordinator: owns the authoritative queue state for one batch and
 * drives it to drained. Use from one thread; requestStop() may be
 * called from a signal context.
 */
class SweepCoordinator
{
  public:
    SweepCoordinator(std::vector<SweepJob> jobs, CoordinatorOptions opts);
    ~SweepCoordinator();
    SweepCoordinator(const SweepCoordinator&) = delete;
    SweepCoordinator& operator=(const SweepCoordinator&) = delete;

    /** Parses the endpoint and binds the TCP server. */
    bool start(std::string* err);

    /** The endpoint string workers should connect to (with the actual
     *  bound port substituted). Valid after start(). */
    std::string endpoint() const;

    /** Bound TCP port. Valid after start(). */
    int port() const;

    /**
     * Runs until every job is done or finally failed (or requestStop()),
     * then returns one JobResult per job in job order: resumed/remote
     * completions carry their byte-exact Reports, final failures carry
     * the recorded error kind. Jobs still outstanding after a stop
     * request are marked skipped.
     */
    std::vector<JobResult> run();

    /** Asks run() to wind down at the next tick (signal-safe). */
    void requestStop();

    std::size_t totalJobs() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace udp

#endif // UDP_SIM_SWEEPD_H
