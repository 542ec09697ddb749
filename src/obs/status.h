/**
 * @file
 * Live sweep status surface (docs/OBSERVABILITY.md §status).
 *
 * One JSON document describes a running (or just-finished) distributed
 * sweep: totals, ETA, a per-job state string and per-worker health rows.
 * The coordinator serves it over the TCP wire protocol (OpStatus);
 * tools/udp_top.cc consumes it to render the dashboard.
 *
 * The schema is append-only: new keys may be added, existing keys keep
 * their names and meaning so scripted `udp_top --once --json` consumers
 * don't break across versions.
 */

#ifndef UDP_OBS_STATUS_H
#define UDP_OBS_STATUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace udp::obs {

/** Health counters for one worker, as seen by the coordinator. */
struct WorkerStatusRow
{
    std::string name;
    std::uint64_t activeLeases = 0;
    std::uint64_t claims = 0;      ///< leases ever granted to this worker
    std::uint64_t completed = 0;   ///< successful results pushed
    std::uint64_t failed = 0;      ///< failed results pushed
    std::uint64_t retries = 0;     ///< claims that were re-attempts (>= 2)
    std::uint64_t stragglers = 0;  ///< duplicate speculative grants received
    std::uint64_t renewals = 0;    ///< lease heartbeats
    std::uint64_t expirations = 0; ///< leases lost to TTL expiry
    double lastSeenSec = -1.0;     ///< seconds since last contact, <0 unknown
};

/** Per-job lifecycle states for SweepStatus::jobStates. */
inline constexpr char kJobPending = 'P';
inline constexpr char kJobLeased = 'L';
inline constexpr char kJobDone = 'D';
inline constexpr char kJobFailed = 'F';

/** One live snapshot of a distributed sweep. */
struct SweepStatus
{
    std::string name;      ///< sweep/coordinator name ("" when unset)
    std::string transport; ///< always "tcp" (kept for schema stability)
    std::uint64_t tsMs = 0;
    std::uint64_t total = 0;
    std::uint64_t done = 0; ///< successes only (mirrors runner accounting)
    std::uint64_t failed = 0;
    std::uint64_t resumed = 0; ///< finals absorbed from a prior manifest
    std::uint64_t pending = 0;
    std::uint64_t leased = 0;
    double elapsedSec = 0.0;
    double etaSec = -1.0; ///< <0 when not yet estimable
    /** One char per job index: P/L/D/F (kJob* above). */
    std::string jobStates;
    std::vector<WorkerStatusRow> workers;
    /** Coordinator-process metrics snapshot (Registry::snapshotJson),
     *  "{}" when absent. Opaque to the parser: kept as raw JSON. */
    std::string metricsJson = "{}";

    std::uint64_t finals() const { return done + failed; }
};

/** Single-line JSON rendering of @p s (the wire/file format). */
std::string sweepStatusToJson(const SweepStatus& s);

/** Parses sweepStatusToJson output. Returns false on malformed input. */
bool sweepStatusFromJson(const std::string& json, SweepStatus* out);

} // namespace udp::obs

#endif // UDP_OBS_STATUS_H
