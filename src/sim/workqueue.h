/**
 * @file
 * The TCP transport of the distributed sweep work queue
 * (docs/ROBUSTNESS.md §10): a minimal length-prefixed RPC protocol
 * (framing shared with sim/procexec.cc via sim/wire.h) between worker
 * clients (WorkQueue) and a single-threaded coordinator server
 * (TcpQueueServer) backed by the authoritative LeaseTable. Every RPC has
 * a connect/read deadline budget; a dead coordinator yields
 * ClaimOutcome::Lost / PushOutcome::Lost so the worker can flush its
 * in-flight result locally.
 *
 * Endpoints are strings: "tcp:HOST:PORT", or "tcp:PORT" for 127.0.0.1.
 */

#ifndef UDP_SIM_WORKQUEUE_H
#define UDP_SIM_WORKQUEUE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/lease.h"
#include "sim/manifest.h"

namespace udp {

namespace wire {

/**
 * The queue protocol. A request frame is magic (u32), opcode (u8), then
 * the opcode's fields and nothing else; a response is magic, status
 * (u8), then the status's fields. A request whose fields do not parse
 * exactly is answered StUnknown without reaching any handler.
 *
 *   OpHello  worker (str)           -> StGranted spec (str) total (u64)
 *                                      retry_ms (u32)
 *   OpClaim  worker (str)           -> StGranted hash index token (u64)
 *                                      attempt ttl_ms (u32)
 *                                    | StNoWork retry_ms (u32) | StDrained
 *   OpRenew  token (u64)            -> StGranted | StUnknown
 *   OpPush   token (u64) entry (str)-> StGranted | StRequeued
 *                                    | StDuplicate | StUnknown
 *   OpStatus (no fields)            -> StGranted status JSON (str)
 */
constexpr std::uint32_t kQueueMagic = 0x55445132; // "UDQ2"

enum QueueOp : std::uint8_t
{
    OpHello = 1,
    OpClaim = 2,
    OpRenew = 3,
    OpPush = 4,
    OpStatus = 5,
};

enum QueueStatus : std::uint8_t
{
    StGranted = 0, // also generic OK
    StNoWork = 1,
    StDrained = 2,
    StDuplicate = 3,
    StUnknown = 4,
    StRequeued = 5,
};

/** Largest frame either side accepts; a longer one is a protocol error. */
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

} // namespace wire

/** Outcome of delivering a job result to the queue. */
enum class PushOutcome
{
    Recorded,  ///< accepted (completion recorded, or failure processed)
    Duplicate, ///< someone else completed the job first — discarded
    Lost,      ///< coordinator unreachable — flush locally
};

/** Parsed "tcp:HOST:PORT" endpoint. */
struct QueueEndpoint
{
    std::string host;
    int port = 0;
};

/**
 * Parses "tcp:HOST:PORT" / "tcp:PORT" (host 127.0.0.1). The port must be
 * all decimal digits in 1..65535, or 0 when @p allowPortZero (the
 * coordinator side, where 0 binds an ephemeral port). Returns false with
 * @p err naming the expected form.
 */
bool parseQueueEndpoint(const std::string& endpoint, bool allowPortZero,
                        QueueEndpoint* out, std::string* err);

/**
 * Worker-side client of a coordinator's queue. Internally synchronized
 * for the worker's heartbeat thread (renew may race a concurrent
 * claim/push). Obtain one from openWorkQueue().
 */
class WorkQueue
{
  public:
    WorkQueue(std::string host, int port, double rpcTimeoutSec);
    ~WorkQueue();
    WorkQueue(const WorkQueue&) = delete;
    WorkQueue& operator=(const WorkQueue&) = delete;

    /** Connects and runs the HELLO exchange. */
    bool connect(std::string* err);

    /** The sweep spec JSON this queue serves ("" for bench pairing,
     *  where both sides construct the job list from their own argv). */
    std::string specJson();

    /** Total jobs in the sweep (drain detection). */
    std::size_t totalJobs();

    /** Tries to claim one job lease. */
    ClaimOutcome claim(const std::string& worker, JobLease* out);

    /** Heartbeat on a held lease; false when the lease is gone (the job
     *  may have been reclaimed — completion is still safe to attempt). */
    bool renew(const JobLease& lease);

    /**
     * Delivers the result of a leased job. @p entry carries the full
     * manifest record: ok entries hold the serialized Report (byte-exact
     * round trip), failed entries the error kind. The coordinator
     * applies its retry policy to failures; completions are idempotent.
     */
    PushOutcome push(const JobLease& lease, const ManifestEntry& entry);

    /** Retry hint after NoWork, seconds. */
    double noWorkRetrySec();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * Opens a connected worker-side queue client for @p endpoint.
 * Returns nullptr with @p err set on failure.
 */
std::unique_ptr<WorkQueue> openWorkQueue(const std::string& endpoint,
                                         double rpcTimeoutSec,
                                         std::string* err);

/**
 * Fetches the live sweep status JSON (obs/status.h schema) from
 * @p endpoint with one OpStatus RPC. Used by tools/udp_top. Returns
 * false with @p err set when the coordinator is unreachable.
 */
bool queryQueueStatus(const std::string& endpoint, double timeoutSec,
                      std::string* statusJson, std::string* err);

/**
 * For a child forked (without exec) from a coordinator process: closes
 * every listening socket it inherited. Queue sockets are close-on-exec,
 * but a plain fork still copies the coordinator's listener; a child
 * holding that copy keeps the port accepting after the coordinator has
 * closed it, so the child's own RPCs to it wait out their timeout.
 */
void closeInheritedListeners();

/**
 * Coordinator-side TCP server: a single-threaded poll loop multiplexing
 * worker connections and dispatching framed RPCs into the handler
 * callbacks (which the coordinator backs with its LeaseTable +
 * manifest). No threads are spawned; the owner calls poll() from its
 * run loop.
 */
class TcpQueueServer
{
  public:
    struct Handlers
    {
        std::function<std::string()> spec;
        std::function<std::size_t()> total;
        std::function<ClaimOutcome(const std::string& worker, JobLease*)>
            claim;
        std::function<bool(std::uint64_t token)> renew;
        std::function<LeaseTable::Push(std::uint64_t token,
                                       const ManifestEntry&)>
            push;
        std::function<double()> retrySec;
        /** OpStatus: live sweep status JSON (obs/status.h). Absent
         *  handler answers an empty object. */
        std::function<std::string()> status;
    };

    TcpQueueServer();
    ~TcpQueueServer();
    TcpQueueServer(const TcpQueueServer&) = delete;
    TcpQueueServer& operator=(const TcpQueueServer&) = delete;

    /** Binds and listens; port 0 picks an ephemeral port (see port()). */
    bool listen(const std::string& host, int port, Handlers handlers,
                std::string* err);

    /** The bound port. */
    int port() const;

    /** Processes pending connections/RPCs for up to @p timeoutSec. */
    void poll(double timeoutSec);

    /** Closes the listener and every worker connection. */
    void close();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace udp

#endif // UDP_SIM_WORKQUEUE_H
