/**
 * @file
 * udp_top — live fleet dashboard for a distributed sweep
 * (docs/OBSERVABILITY.md). Polls the coordinator's status surface — one
 * OpStatus RPC to its "tcp:HOST:PORT" endpoint — and renders sweep
 * progress, ETA, per-job states and per-worker health (leases, retries,
 * stragglers, heartbeats).
 *
 *   udp_top tcp:127.0.0.1:7777              # refreshing dashboard
 *   udp_top tcp:127.0.0.1:7777 --interval 1
 *   udp_top tcp:127.0.0.1:7777 --once       # one snapshot, human form
 *   udp_top tcp:127.0.0.1:7777 --once --json  # one raw status JSON line
 *
 * Exit codes: 0 snapshot fetched (or dashboard interrupted), 1 status
 * unavailable in --once mode, 2 usage error.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/status.h"
#include "sim/workqueue.h"

using namespace udp;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
stopHandler(int)
{
    g_stop = 1;
}

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s ENDPOINT [--interval SEC] [--timeout SEC] "
                 "[--once] [--json]\n"
                 "  ENDPOINT: tcp:HOST:PORT\n",
                 argv0);
}

std::string
fmtDur(double sec)
{
    if (sec < 0.0) {
        return "?";
    }
    char buf[32];
    if (sec < 90.0) {
        std::snprintf(buf, sizeof buf, "%.0fs", sec);
    } else if (sec < 5400.0) {
        std::snprintf(buf, sizeof buf, "%.1fm", sec / 60.0);
    } else {
        std::snprintf(buf, sizeof buf, "%.1fh", sec / 3600.0);
    }
    return buf;
}

/** Renders one status snapshot as the multi-line dashboard body. */
std::string
render(const obs::SweepStatus& s)
{
    std::string out;
    char buf[256];

    std::snprintf(buf, sizeof buf,
                  "sweep \"%s\" (%s)  elapsed %s  eta %s\n",
                  s.name.c_str(), s.transport.c_str(),
                  fmtDur(s.elapsedSec).c_str(), fmtDur(s.etaSec).c_str());
    out += buf;

    std::snprintf(
        buf, sizeof buf,
        "jobs: %llu/%llu done, %llu failed, %llu leased, %llu pending"
        " (%llu resumed)\n",
        static_cast<unsigned long long>(s.done),
        static_cast<unsigned long long>(s.total),
        static_cast<unsigned long long>(s.failed),
        static_cast<unsigned long long>(s.leased),
        static_cast<unsigned long long>(s.pending),
        static_cast<unsigned long long>(s.resumed));
    out += buf;

    // Progress bar over finals (successes + failures).
    const int width = 40;
    double frac = s.total == 0
                      ? 0.0
                      : static_cast<double>(s.finals()) /
                            static_cast<double>(s.total);
    int fill = static_cast<int>(frac * width + 0.5);
    out += "[";
    for (int i = 0; i < width; ++i) {
        out += i < fill ? '#' : '.';
    }
    std::snprintf(buf, sizeof buf, "] %3.0f%%\n", frac * 100.0);
    out += buf;

    if (!s.jobStates.empty() && s.jobStates.size() <= 120) {
        out += "states: " + s.jobStates + "\n";
    }

    if (!s.workers.empty()) {
        std::snprintf(buf, sizeof buf,
                      "%-14s %5s %6s %5s %5s %6s %6s %6s %7s %6s\n",
                      "WORKER", "ACT", "CLAIM", "DONE", "FAIL", "RETRY",
                      "STRAG", "RENEW", "EXPIRE", "SEEN");
        out += buf;
        for (const obs::WorkerStatusRow& w : s.workers) {
            std::snprintf(
                buf, sizeof buf,
                "%-14s %5llu %6llu %5llu %5llu %6llu %6llu %6llu %7llu"
                " %6s\n",
                w.name.c_str(),
                static_cast<unsigned long long>(w.activeLeases),
                static_cast<unsigned long long>(w.claims),
                static_cast<unsigned long long>(w.completed),
                static_cast<unsigned long long>(w.failed),
                static_cast<unsigned long long>(w.retries),
                static_cast<unsigned long long>(w.stragglers),
                static_cast<unsigned long long>(w.renewals),
                static_cast<unsigned long long>(w.expirations),
                w.lastSeenSec < 0.0 ? "?"
                                    : fmtDur(w.lastSeenSec).c_str());
            out += buf;
        }
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string endpoint;
    double intervalSec = 2.0;
    double timeoutSec = 5.0;
    bool once = false;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--interval") {
            intervalSec = std::strtod(val(), nullptr);
        } else if (arg == "--timeout") {
            timeoutSec = std::strtod(val(), nullptr);
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--json") {
            json = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
            return 2;
        } else if (endpoint.empty()) {
            endpoint = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (endpoint.empty()) {
        usage(argv[0]);
        return 2;
    }
    QueueEndpoint ep;
    std::string epErr;
    if (!parseQueueEndpoint(endpoint, false, &ep, &epErr)) {
        std::fprintf(stderr, "[udp_top] %s\n", epErr.c_str());
        return 2;
    }
    if (intervalSec < 0.1) {
        intervalSec = 0.1;
    }

    std::signal(SIGINT, stopHandler);
    std::signal(SIGTERM, stopHandler);

    while (g_stop == 0) {
        std::string raw;
        std::string err;
        bool ok = queryQueueStatus(endpoint, timeoutSec, &raw, &err);
        if (once) {
            if (!ok) {
                std::fprintf(stderr, "[udp_top] %s: %s\n",
                             endpoint.c_str(), err.c_str());
                return 1;
            }
            if (json) {
                std::printf("%s\n", raw.c_str());
                return 0;
            }
            obs::SweepStatus s;
            if (!obs::sweepStatusFromJson(raw, &s)) {
                std::fprintf(stderr,
                             "[udp_top] %s: malformed status JSON\n",
                             endpoint.c_str());
                return 1;
            }
            std::printf("%s", render(s).c_str());
            return 0;
        }

        if (json) {
            // Streaming scripting mode: one raw JSON line per poll.
            if (ok) {
                std::printf("%s\n", raw.c_str());
                std::fflush(stdout);
            }
        } else {
            // Dashboard: clear screen, home cursor, redraw.
            std::string frame = "\x1b[2J\x1b[H";
            frame += "udp_top — " + endpoint + "  (refresh " +
                     fmtDur(intervalSec) + ", ^C quits)\n\n";
            if (ok) {
                obs::SweepStatus s;
                if (obs::sweepStatusFromJson(raw, &s)) {
                    frame += render(s);
                } else {
                    frame += "malformed status JSON\n";
                }
            } else {
                frame += "waiting for status: " + err + "\n";
            }
            std::fwrite(frame.data(), 1, frame.size(), stdout);
            std::fflush(stdout);
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(intervalSec));
    }
    return 0;
}
