#include "sim/sweep.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "sim/manifest.h"
#include "sim/pool.h"
#include "sim/procexec.h"
#include "sim/simerror.h"
#include "stats/sink.h"

namespace udp {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Filesystem-safe version of a job label. */
std::string
sanitizeLabel(const std::string& label)
{
    std::string out;
    out.reserve(label.size());
    for (char c : label) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("job") : out;
}

/**
 * Writes a failure's diagnostics under @p dir; returns the file path, or
 * "" when the write failed (the dump stays available in JobResult).
 */
std::string
writeFailureDump(const std::string& dir, const std::string& label,
                 std::size_t index, const JobError& err)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        obs::Event(obs::LogLevel::Warn, "sweep", "dump_dir_error")
            .str("dir", dir)
            .str("error", ec.message())
            .emit();
        return "";
    }
    std::string path = dir + "/" + sanitizeLabel(label) + "-" +
                       std::to_string(index) + ".dump.txt";
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
        obs::Event(obs::LogLevel::Warn, "sweep", "dump_open_error")
            .str("path", path)
            .emit();
        return "";
    }
    out << err.message << '\n';
    if (!err.dump.empty()) {
        out << err.dump;
    }
    if (!err.stderrTail.empty()) {
        out << "--- child stderr tail ---\n" << err.stderrTail;
        if (err.stderrTail.back() != '\n') {
            out << '\n';
        }
    }
    return path;
}

// --- graceful shutdown ------------------------------------------------------

volatile std::sig_atomic_t g_stopSignal = 0;

extern "C" void
sweepStopHandler(int sig)
{
    g_stopSignal = sig;
}

/**
 * Scoped SIGINT/SIGTERM handler installation. The first signal only sets
 * the sticky stop flag (queued jobs are then skipped while in-flight jobs
 * drain); SA_RESETHAND restores the default disposition so a second
 * signal kills the process outright — the flushed manifest still permits
 * resumption.
 */
class SignalGuard
{
  public:
    explicit SignalGuard(bool enable) : active(enable)
    {
        if (!active) {
            return;
        }
        g_stopSignal = 0;
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = sweepStopHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESETHAND;
        ::sigaction(SIGINT, &sa, &oldInt);
        ::sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~SignalGuard()
    {
        if (!active) {
            return;
        }
        ::sigaction(SIGINT, &oldInt, nullptr);
        ::sigaction(SIGTERM, &oldTerm, nullptr);
    }

    SignalGuard(const SignalGuard&) = delete;
    SignalGuard& operator=(const SignalGuard&) = delete;

  private:
    bool active;
    struct sigaction oldInt {};
    struct sigaction oldTerm {};
};

} // namespace

JobResult
runJobChecked(const SweepJob& jobIn, std::size_t index,
              const JobExecOptions& opts)
{
    JobResult jr;
    SweepJob job = jobIn; // local copy: the budget edit is per execution
    if (opts.jobCycleBudget != 0 && job.config.watchdog.maxCycles == 0) {
        job.config.watchdog.maxCycles = opts.jobCycleBudget;
    }
    const unsigned maxAttempts = opts.maxAttempts == 0 ? 1 : opts.maxAttempts;

    for (unsigned attempt = 1; attempt <= maxAttempts && !jr.ok; ++attempt) {
        jr.attempts = attempt;
        if (opts.isolate) {
            ProcLimits limits;
            limits.memLimitBytes = opts.memLimitBytes;
            limits.cpuLimitSec = opts.cpuLimitSec;
            limits.wallLimitSec = opts.wallLimitSec;
            JobResult sub = runJobIsolated(job, limits);
            jr.ok = sub.ok;
            jr.report = std::move(sub.report);
            jr.error = std::move(sub.error);
            continue;
        }
        try {
            jr.report = runSim(job.profile, job.config, job.opts, job.label);
            jr.ok = true;
        } catch (const SimError& e) {
            jr.error = JobError{};
            jr.error.kind = e.kindName();
            jr.error.component = e.component();
            jr.error.message = e.what();
            jr.error.dump = e.dump();
            jr.error.cycle = e.cycle();
            jr.exception = std::current_exception();
        } catch (const std::exception& e) {
            jr.error = JobError{};
            jr.error.kind = "exception";
            jr.error.message = e.what();
            jr.exception = std::current_exception();
        } catch (...) {
            jr.error = JobError{};
            jr.error.kind = "exception";
            jr.error.message = "unknown exception";
            jr.exception = std::current_exception();
        }
    }

    if (!jr.ok && !opts.dumpDir.empty()) {
        jr.error.dumpPath =
            writeFailureDump(opts.dumpDir, job.label, index, jr.error);
    }
    return jr;
}

bool
sweepStopRequested()
{
    return g_stopSignal != 0;
}

int
sweepStopSignal()
{
    return static_cast<int>(g_stopSignal);
}

unsigned
SweepRunner::defaultJobs()
{
    std::uint64_t n = 0;
    if (parsePositiveEnv("UDP_JOBS", &n)) {
        return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

SweepRunner::SweepRunner(SweepOptions options)
    : opts(std::move(options)),
      threads(opts.numThreads == 0 ? defaultJobs() : opts.numThreads)
{
}

std::vector<JobResult>
SweepRunner::runChecked(const std::vector<SweepJob>& jobs) const
{
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty()) {
        return results;
    }

    // Checkpoint manifest: hash every job up front; on resume, satisfy
    // already-completed jobs by replaying their recorded Reports.
    SweepManifest manifest;
    std::vector<std::uint64_t> hashes;
    std::size_t resumedCount = 0;
    if (!opts.manifestPath.empty()) {
        hashes.resize(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            hashes[i] = sweepJobHash(jobs[i], i);
        }
        if (manifest.open(opts.manifestPath, opts.resume) && opts.resume) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const ManifestEntry* e = manifest.findCompleted(hashes[i]);
                if (e == nullptr) {
                    continue;
                }
                if (e->workload != jobs[i].profile.name ||
                    e->label != jobs[i].label) {
                    // A spliced line can bind a valid hash to another
                    // record's fields; never replay it — re-run instead.
                    continue;
                }
                Report r;
                if (!reportFromJsonLine(e->reportJson, &r)) {
                    continue; // unreadable record: just re-run the job
                }
                results[i].report = std::move(r);
                results[i].ok = true;
                results[i].resumed = true;
                results[i].attempts = 0;
                ++resumedCount;
            }
            if (!opts.quiet && resumedCount != 0) {
                obs::Event(obs::LogLevel::Info, "sweep", "resumed")
                    .u64("resumed", resumedCount)
                    .u64("total", jobs.size())
                    .str("manifest", opts.manifestPath)
                    .emit();
            }
        }
    }

    // Isolation shares the parent's Program cache with every child via
    // copy-on-write: build each distinct workload once before forking.
    if (opts.isolate) {
        std::unordered_set<std::string> warmed;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (results[i].resumed) {
                continue;
            }
            const Profile& p = jobs[i].profile;
            std::string key = p.name + "#" + std::to_string(p.seed) + "#" +
                              std::to_string(p.codeFootprintKB);
            if (warmed.insert(std::move(key)).second) {
                prewarmProgram(p);
            }
        }
    }

    SignalGuard guard(opts.handleSignals);

    // Progress state shared by the workers.
    std::mutex mtx;
    std::size_t done = resumedCount;
    std::size_t failed = 0;
    std::size_t skippedCount = 0;
    bool stopAnnounced = false;
    const Clock::time_point start = Clock::now();
    const unsigned max_attempts = opts.maxAttempts == 0 ? 1 : opts.maxAttempts;

    auto postProgress = [&](std::size_t jobIndex, const JobResult& jr) {
        // Caller holds mtx; the event log is additionally a single
        // writer emitting whole lines, so pool workers never interleave.
        if (!jr.ok && !jr.skipped && !opts.quiet) {
            obs::Event(obs::LogLevel::Warn, "sweep", "job_failed")
                .u64("job", jobIndex)
                .str("label", jobs[jobIndex].label)
                .u64("attempts", jr.attempts)
                .str("kind", jr.error.kind)
                .str("message", jr.error.message)
                .emit();
        }
        SweepProgress p;
        p.done = done;
        p.total = jobs.size();
        p.failed = failed;
        p.resumed = resumedCount;
        p.skipped = skippedCount;
        p.elapsedSec = secondsSince(start);
        p.etaSec = p.done == 0
                       ? 0.0
                       : p.elapsedSec / static_cast<double>(p.done) *
                             static_cast<double>(p.total - p.done);
        if (opts.onProgress) {
            opts.onProgress(p);
        } else if (!opts.quiet) {
            obs::Event ev(obs::LogLevel::Info, "sweep", "progress");
            ev.u64("done", p.done)
                .u64("total", p.total)
                .u64("failed", p.failed)
                .f64("elapsed_sec", p.elapsedSec)
                .f64("eta_sec", p.etaSec)
                .every(0.25);
            if (p.done == p.total) {
                ev.force(); // the 100% line always lands
            }
            ev.emit();
        }
    };

    auto runOne = [&](std::size_t i) {
        JobResult& jr = results[i];
        if (jr.resumed) {
            return;
        }

        // Graceful shutdown: a queued job observed after the stop signal
        // never starts. It gets neither a Report nor a failure row, and
        // is not recorded in the manifest, so --resume re-runs it.
        if (opts.handleSignals && sweepStopRequested()) {
            jr.skipped = true;
            jr.ok = false;
            jr.attempts = 0;
            jr.error = JobError{};
            jr.error.kind = "skipped";
            jr.error.message = "graceful shutdown requested before start";
            std::lock_guard<std::mutex> lock(mtx);
            if (!stopAnnounced && !opts.quiet) {
                obs::Event(obs::LogLevel::Warn, "sweep", "stop_signal")
                    .i64("signal", sweepStopSignal())
                    .str("action", "draining in-flight, skipping queued")
                    .emit();
            }
            stopAnnounced = true;
            ++done;
            ++skippedCount;
            postProgress(i, jr);
            return;
        }

        JobExecOptions eo;
        eo.maxAttempts = max_attempts;
        eo.jobCycleBudget = opts.jobCycleBudget;
        eo.dumpDir = opts.dumpDir;
        eo.isolate = opts.isolate;
        eo.memLimitBytes = opts.memLimitBytes;
        eo.cpuLimitSec = opts.cpuLimitSec;
        eo.wallLimitSec = opts.wallLimitSec;
        jr = runJobChecked(jobs[i], i, eo);

        // A failed job still counts as done: progress always reaches
        // total and the ETA is computed from every finished job.
        std::lock_guard<std::mutex> lock(mtx);
        ++done;
        obs::counter("sweep.jobs_done").add(1);
        if (!jr.ok) {
            ++failed;
            obs::counter("sweep.jobs_failed").add(1);
        }
        if (manifest.isOpen()) {
            ManifestEntry e;
            e.hash = hashes[i];
            e.index = i;
            e.workload = jobs[i].profile.name;
            e.label = jobs[i].label;
            e.ok = jr.ok;
            if (jr.ok) {
                e.reportJson = reportToJsonLine(jr.report);
            } else {
                e.errorKind = jr.error.kind;
            }
            manifest.record(e);
        }
        postProgress(i, jr);
    };

    if (threads <= 1) {
        // Serial reference path: same code, no pool.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            runOne(i);
        }
    } else {
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (results[i].resumed) {
                continue;
            }
            pool.submit([&, i] { runOne(i); });
        }
        pool.wait();
    }

    manifest.close();
    return results;
}

std::vector<Report>
SweepRunner::run(const std::vector<SweepJob>& jobs) const
{
    std::vector<JobResult> checked = runChecked(jobs);
    // All-or-nothing contract: surface the first failure by job index.
    for (const JobResult& jr : checked) {
        if (!jr.ok) {
            if (jr.exception) {
                std::rethrow_exception(jr.exception);
            }
            // Isolated/skipped failures have no in-process exception.
            throw std::runtime_error("[" + jr.error.kind + "] " +
                                     jr.error.message);
        }
    }
    std::vector<Report> results;
    results.reserve(checked.size());
    for (JobResult& jr : checked) {
        results.push_back(std::move(jr.report));
    }
    return results;
}

std::vector<Report>
runSweep(const std::vector<SweepJob>& jobs)
{
    return SweepRunner{}.run(jobs);
}

std::vector<JobResult>
runSweepChecked(const std::vector<SweepJob>& jobs, SweepOptions options)
{
    return SweepRunner{std::move(options)}.runChecked(jobs);
}

} // namespace udp
