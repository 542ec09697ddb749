/**
 * @file
 * Helpers shared by the distributed-sweep tests that kill or outlive a
 * participant (test_sweepd.cc, test_obs.cc): forked worker processes and
 * STATUS polling that waits until the coordinator's board shows a given
 * worker holding a lease.
 *
 * The coordinator's TCP server is pumped only inside
 * SweepCoordinator::run(), so anything that must observe the board runs
 * on its own thread while run() blocks the test thread. Workers are
 * forked before that thread starts.
 */

#ifndef UDP_TESTS_SWEEPD_CHAOS_H
#define UDP_TESTS_SWEEPD_CHAOS_H

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "obs/status.h"
#include "sim/sweepd.h"
#include "sim/workqueue.h"

namespace udp::chaos {

/** Forks a worker process against @p endpoint; returns its pid. The
 *  child exits 0 once drained, 2 if it cannot connect, 3 on queue loss. */
inline pid_t
forkWorker(const std::string& endpoint, const std::vector<SweepJob>& jobs,
           const std::string& name, unsigned jobDelayMs)
{
    pid_t pid = ::fork();
    if (pid != 0) {
        return pid;
    }
    std::string err;
    auto q = openWorkQueue(endpoint, 5.0, &err);
    if (q == nullptr) {
        ::_exit(2);
    }
    WorkerOptions wo;
    wo.name = name;
    wo.quiet = true;
    wo.jobDelayMs = jobDelayMs;
    WorkerSummary s = runSweepWorker(*q, jobs, wo);
    ::_exit(s.queueLost ? 3 : 0);
}

/** True when status JSON @p raw shows @p worker with an active lease. */
inline bool
boardShowsLease(const std::string& raw, const std::string& worker)
{
    obs::SweepStatus s;
    if (!obs::sweepStatusFromJson(raw, &s)) {
        return false;
    }
    for (const obs::WorkerStatusRow& w : s.workers) {
        if (w.name == worker && w.activeLeases >= 1) {
            return true;
        }
    }
    return false;
}

/** Polls STATUS until @p worker holds a lease; false after @p timeoutSec. */
inline bool
waitForLease(const std::string& endpoint, const std::string& worker,
             double timeoutSec)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeoutSec);
    while (std::chrono::steady_clock::now() < deadline) {
        std::string raw;
        std::string err;
        if (queryQueueStatus(endpoint, 1.0, &raw, &err) &&
            boardShowsLease(raw, worker)) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

/**
 * SIGKILLs a victim worker mid-lease. A poller thread SIGKILLs @p victim
 * the first time a STATUS answer shows the worker named @p victimName
 * holding a lease, and keeps polling until stop(). lastStatus() is then
 * the final snapshot the coordinator answered, during its post-drain
 * grace window.
 */
class KillOnLease
{
  public:
    KillOnLease(std::string endpoint, std::string victimName, pid_t victim)
        : endpoint(std::move(endpoint)), victimName(std::move(victimName)),
          victim(victim)
    {
        poller = std::thread([this] { loop(); });
    }

    ~KillOnLease() { stop(); }

    KillOnLease(const KillOnLease&) = delete;
    KillOnLease& operator=(const KillOnLease&) = delete;

    void stop()
    {
        done.store(true);
        if (poller.joinable()) {
            poller.join();
        }
    }

    /** True once the victim was killed after the board showed it with
     *  activeLeases >= 1. */
    bool killedWhileLeased() const { return killed.load(); }

    /** The last STATUS answer ("" if none). Valid after stop(). */
    const std::string& lastStatus() const { return last; }

  private:
    void loop()
    {
        while (!done.load()) {
            std::string raw;
            std::string err;
            if (queryQueueStatus(endpoint, 1.0, &raw, &err)) {
                if (!killed.load() && boardShowsLease(raw, victimName) &&
                    ::kill(victim, SIGKILL) == 0) {
                    killed.store(true);
                }
                last = std::move(raw);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }

    std::string endpoint;
    std::string victimName;
    pid_t victim;
    std::atomic<bool> done{false};
    std::atomic<bool> killed{false};
    std::string last;
    std::thread poller;
};

} // namespace udp::chaos

#endif // UDP_TESTS_SWEEPD_CHAOS_H
