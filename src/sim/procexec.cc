#include "sim/procexec.h"

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>

#include "obs/metrics.h"
#include "sim/runner.h"
#include "sim/simerror.h"
#include "sim/wire.h"
#include "stats/sink.h"

// Sanitizers reserve terabytes of virtual address space for shadow
// memory; an RLIMIT_AS cap would kill every child at startup.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UDP_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UDP_UNDER_SANITIZER 1
#endif
#endif
#ifndef UDP_UNDER_SANITIZER
#define UDP_UNDER_SANITIZER 0
#endif

namespace udp {

bool
procUnderSanitizer()
{
    return UDP_UNDER_SANITIZER != 0;
}

namespace {

using Clock = std::chrono::steady_clock;

// --- pipe protocol ---------------------------------------------------------
//
// One message per child: magic, status byte ('R' report / 'E' error),
// then length-prefixed fields encoded with the shared wire primitives
// (sim/wire.h). The parent treats anything that does not parse exactly
// as a protocol failure.

using wire::appendStr;
using wire::appendU32;
using wire::appendU64;
using wire::readStr;
using wire::readU32;
using wire::readU64;

constexpr std::uint32_t kMagic = 0x55445031; // "UDP1"
constexpr char kStatusReport = 'R';
constexpr char kStatusError = 'E';

bool
writeAll(int fd, const char* data, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

// --- child side ------------------------------------------------------------

void
applyChildLimits(const ProcLimits& limits)
{
    // A crashing child is expected here; don't litter core files.
    struct rlimit core = {0, 0};
    ::setrlimit(RLIMIT_CORE, &core);

#if !UDP_UNDER_SANITIZER
    if (limits.memLimitBytes != 0) {
        struct rlimit rl;
        rl.rlim_cur = static_cast<rlim_t>(limits.memLimitBytes);
        rl.rlim_max = static_cast<rlim_t>(limits.memLimitBytes);
        ::setrlimit(RLIMIT_AS, &rl);
    }
#endif
    if (limits.cpuLimitSec != 0) {
        struct rlimit rl;
        // Soft limit raises SIGXCPU (classified "cpu_limit"); the hard
        // limit is the SIGKILL backstop should the child ignore it.
        rl.rlim_cur = static_cast<rlim_t>(limits.cpuLimitSec);
        rl.rlim_max = static_cast<rlim_t>(limits.cpuLimitSec + 5);
        ::setrlimit(RLIMIT_CPU, &rl);
    }
}

std::string
encodeError(const std::string& kind, const std::string& component,
            const std::string& message, const std::string& dump,
            std::uint64_t cycle)
{
    std::string buf;
    appendU32(&buf, kMagic);
    buf.push_back(kStatusError);
    appendStr(&buf, kind);
    appendStr(&buf, component);
    appendStr(&buf, message);
    appendStr(&buf, dump);
    appendU64(&buf, cycle);
    return buf;
}

[[noreturn]] void
childRun(const SweepJob& job, int result_fd)
{
    std::string payload;
    try {
        try {
            Report r = runSim(job.profile, job.config, job.opts, job.label);
            payload.clear();
            appendU32(&payload, kMagic);
            payload.push_back(kStatusReport);
            appendStr(&payload, reportToJsonLine(r));
        } catch (const SimError& e) {
            payload = encodeError(e.kindName(), e.component(), e.what(),
                                  e.dump(), e.cycle());
        } catch (const std::bad_alloc&) {
            payload = encodeError(
                "mem_limit", "",
                "std::bad_alloc: allocation failed (memory limit reached)",
                "", 0);
        } catch (const std::exception& e) {
            payload = encodeError("exception", "", e.what(), "", 0);
        } catch (...) {
            payload = encodeError("exception", "", "unknown exception", "",
                                  0);
        }
    } catch (...) {
        // Even building the payload failed (e.g. bad_alloc while copying
        // a large dump under RLIMIT_AS): report through the exit status.
        _exit(4);
    }
    if (!writeAll(result_fd, payload.data(), payload.size())) {
        _exit(3);
    }
    _exit(0);
}

// --- parent side -----------------------------------------------------------

std::string
signalNameOf(int sig)
{
    switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    case SIGSYS: return "SIGSYS";
    case SIGTRAP: return "SIGTRAP";
    case SIGPIPE: return "SIGPIPE";
    default: return "SIG" + std::to_string(sig);
    }
}

/** Decodes a complete child payload into @p jr; false when malformed. */
bool
decodePayload(const std::string& buf, JobResult* jr)
{
    std::size_t pos = 0;
    std::uint32_t magic = 0;
    if (!readU32(buf, &pos, &magic) || magic != kMagic ||
        pos >= buf.size()) {
        return false;
    }
    char status = buf[pos++];
    if (status == kStatusReport) {
        std::string json;
        if (!readStr(buf, &pos, &json) || pos != buf.size()) {
            return false;
        }
        Report r;
        if (!reportFromJsonLine(json, &r)) {
            return false;
        }
        jr->report = std::move(r);
        jr->ok = true;
        return true;
    }
    if (status == kStatusError) {
        JobError e;
        if (!readStr(buf, &pos, &e.kind) ||
            !readStr(buf, &pos, &e.component) ||
            !readStr(buf, &pos, &e.message) ||
            !readStr(buf, &pos, &e.dump)) {
            return false;
        }
        std::uint64_t cycle = 0;
        if (!readU64(buf, &pos, &cycle) || pos != buf.size()) {
            return false;
        }
        e.cycle = cycle;
        jr->error = std::move(e);
        jr->ok = false;
        return true;
    }
    return false;
}

} // namespace

JobResult
runJobIsolated(const SweepJob& job, const ProcLimits& limits)
{
    wire::installSigpipeIgnore();
    JobResult jr;
    int res_pipe[2];
    int err_pipe[2];
    if (::pipe(res_pipe) != 0) {
        jr.error.kind = "exception";
        jr.error.message =
            std::string("pipe() failed: ") + std::strerror(errno);
        return jr;
    }
    if (::pipe(err_pipe) != 0) {
        jr.error.kind = "exception";
        jr.error.message =
            std::string("pipe() failed: ") + std::strerror(errno);
        ::close(res_pipe[0]);
        ::close(res_pipe[1]);
        return jr;
    }

    // Inherited stdio buffers would otherwise be double-flushed by the
    // child (it uses _exit, but the fault hooks fprintf to stderr).
    std::fflush(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        obs::counter("procexec.fork_failures").add(1);
        jr.error.kind = "exception";
        jr.error.message =
            std::string("fork() failed: ") + std::strerror(errno);
        ::close(res_pipe[0]);
        ::close(res_pipe[1]);
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        return jr;
    }

    if (pid == 0) {
        // Child: redirect stderr into the capture pipe, shield the job
        // from the terminal's SIGINT/SIGTERM (graceful shutdown drains
        // in-flight jobs; the parent's wall deadline stays the backstop),
        // apply rlimits, run, report, _exit.
        ::close(res_pipe[0]);
        ::close(err_pipe[0]);
        ::dup2(err_pipe[1], STDERR_FILENO);
        if (err_pipe[1] != STDERR_FILENO) {
            ::close(err_pipe[1]);
        }
        std::signal(SIGINT, SIG_IGN);
        std::signal(SIGTERM, SIG_IGN);
        // If the parent dies first, writing the result must fail with
        // EPIPE (classified "exit") instead of SIGPIPE killing us with
        // no classification at all.
        wire::installSigpipeIgnore();
        applyChildLimits(limits);
        childRun(job, res_pipe[1]); // noreturn
    }

    // Parent: drain both pipes (the child blocks if its stderr pipe
    // fills) while enforcing the wall-clock deadline.
    ::close(res_pipe[1]);
    ::close(err_pipe[1]);

    std::string payload;
    std::string tail;
    bool timed_out = false;
    const bool has_deadline = limits.wallLimitSec > 0.0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               has_deadline ? limits.wallLimitSec : 0.0));

    struct pollfd pfd[2];
    pfd[0] = {res_pipe[0], POLLIN, 0};
    pfd[1] = {err_pipe[0], POLLIN, 0};

    while (pfd[0].fd >= 0 || pfd[1].fd >= 0) {
        int timeout_ms = -1;
        if (has_deadline && !timed_out) {
            auto remain = std::chrono::duration_cast<
                              std::chrono::milliseconds>(deadline -
                                                         Clock::now())
                              .count();
            if (remain <= 0) {
                ::kill(pid, SIGKILL);
                timed_out = true; // pipes will hit EOF as the child dies
            } else {
                timeout_ms = static_cast<int>(remain) + 1;
            }
        }
        int rc = ::poll(pfd, 2, timeout_ms);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (rc == 0) {
            continue; // deadline re-check at the top
        }
        for (int i = 0; i < 2; ++i) {
            if (pfd[i].fd < 0 || pfd[i].revents == 0) {
                continue;
            }
            char buf[4096];
            ssize_t n = ::read(pfd[i].fd, buf, sizeof(buf));
            if (n > 0) {
                std::string& dst = i == 0 ? payload : tail;
                dst.append(buf, static_cast<std::size_t>(n));
                if (i == 1 && tail.size() > limits.stderrTailBytes) {
                    tail.erase(0, tail.size() - limits.stderrTailBytes);
                }
            } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
                ::close(pfd[i].fd);
                pfd[i].fd = -1;
            }
        }
    }
    if (pfd[0].fd >= 0) {
        ::close(pfd[0].fd);
    }
    if (pfd[1].fd >= 0) {
        ::close(pfd[1].fd);
    }

    int status = 0;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }

    // Per-outcome counters plus a child peak-RSS histogram: the isolation
    // layer's own health, surfaced through STATUS/metrics snapshots.
    obs::counter("procexec.children").add(1);
    if (ru.ru_maxrss > 0) {
        obs::histogram("procexec.child_max_rss_kb")
            .observe(static_cast<std::uint64_t>(ru.ru_maxrss));
    }

    auto attachDiagnostics = [&](JobError* e) {
        e->stderrTail = tail;
        e->maxRssKb = static_cast<std::uint64_t>(ru.ru_maxrss);
        e->userSec = static_cast<double>(ru.ru_utime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
        e->sysSec = static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    };

    if (timed_out) {
        obs::counter("procexec.timeouts").add(1);
        jr.ok = false;
        jr.error = JobError{};
        jr.error.kind = "timeout";
        jr.error.signal = "SIGKILL";
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "wall-clock limit of %.1fs exceeded; child killed",
                      limits.wallLimitSec);
        jr.error.message = msg;
        attachDiagnostics(&jr.error);
        return jr;
    }

    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        obs::counter(sig == SIGXCPU   ? "procexec.cpu_limit_kills"
                     : sig == SIGKILL ? "procexec.oom_kills"
                                      : "procexec.crashes")
            .add(1);
        jr.ok = false;
        jr.error = JobError{};
        jr.error.signal = signalNameOf(sig);
        if (sig == SIGXCPU) {
            jr.error.kind = "cpu_limit";
            jr.error.message = "CPU-time limit exceeded (SIGXCPU)";
        } else if (sig == SIGKILL) {
            // Not our wall-deadline kill (handled above): the kernel's
            // OOM killer or the RLIMIT_CPU hard-limit backstop.
            jr.error.kind = "oom_kill";
            jr.error.message =
                "child killed by SIGKILL (kernel OOM killer or hard "
                "resource limit)";
        } else {
            jr.error.kind = "crash";
            jr.error.message = "child terminated by " + jr.error.signal;
        }
        attachDiagnostics(&jr.error);
        return jr;
    }

    if (decodePayload(payload, &jr)) {
        obs::counter(jr.ok ? "procexec.clean_exits"
                           : "procexec.job_errors")
            .add(1);
        if (!jr.ok) {
            attachDiagnostics(&jr.error);
        }
        return jr;
    }

    obs::counter("procexec.protocol_errors").add(1);
    jr.ok = false;
    jr.error = JobError{};
    int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (exit_code != 0) {
        jr.error.kind = "exit";
        jr.error.message = "child exited with status " +
                           std::to_string(exit_code) +
                           " without a result payload";
    } else {
        jr.error.kind = "protocol";
        jr.error.message = "malformed result payload from child (" +
                           std::to_string(payload.size()) + " bytes)";
    }
    attachDiagnostics(&jr.error);
    return jr;
}

} // namespace udp
