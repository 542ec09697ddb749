#include "passes.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <stop_token>
#include <thread>

#include "sim/simerror.h"
#include "sim/sweepd.h"
#include "stats/sink.h"

extern char** environ;

namespace perfbench {

using namespace udp;

namespace {

/** A tcp pass that runs longer than this is stopped (its jobs fail). */
constexpr double kPassDeadlineSec = 60.0;

void
fillPoints(PassResult& r, std::vector<JobResult>& results)
{
    r.points.resize(results.size());
    r.reports.resize(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        JobResult& jr = results[i];
        if (jr.ok) {
            r.points[i] = {true, reportToJsonLine(jr.report), ""};
            r.reports[i] = std::move(jr.report);
        } else {
            r.points[i] = {false, "", jr.error.kind + ": " + jr.error.message};
        }
    }
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) {
        throw std::runtime_error("cannot resolve /proc/self/exe");
    }
    return std::string(buf, static_cast<std::size_t>(n));
}

/**
 * posix_spawn()s @p argv with stdout on @p stdoutFd (-1 = /dev/null) and
 * stderr on /dev/null when @p quietStderr. Returns the pid or -1.
 */
pid_t
spawn(const std::vector<std::string>& argv, int stdoutFd, bool quietStderr)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    if (stdoutFd >= 0) {
        posix_spawn_file_actions_adddup2(&fa, stdoutFd, 1);
    } else {
        posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    }
    if (quietStderr) {
        posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    }
    std::vector<char*> args;
    for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, argv[0].c_str(), &fa, nullptr, args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    return rc == 0 ? pid : -1;
}

/** One udp_top --once --json snapshot of @p endpoint. */
bool
queryStatus(const std::string& udpTop, const std::string& endpoint,
            obs::SweepStatus* out)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        return false;
    }
    pid_t pid = spawn({udpTop, endpoint, "--once", "--json", "--timeout", "1"},
                      fds[1], true);
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    if (pid < 0) {
        return false;
    }
    int st = 0;
    ::waitpid(pid, &st, 0);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
    }
    return WIFEXITED(st) && WEXITSTATUS(st) == 0 &&
           obs::sweepStatusFromJson(text, out);
}

std::string
workerName(unsigned k)
{
    std::string name = "w";
    name += std::to_string(k);
    return name;
}

/** Worker processes of one tcp pass; kills and reaps leftovers. */
struct Workers
{
    struct Kid
    {
        pid_t pid = -1;
        double startSec = 0.0;
    };
    std::vector<Kid> kids;

    Workers() = default;
    Workers(const Workers&) = delete;
    Workers& operator=(const Workers&) = delete;
    ~Workers()
    {
        for (const Kid& k : kids) {
            ::kill(k.pid, SIGKILL);
            ::waitpid(k.pid, nullptr, 0);
        }
    }
};

} // namespace

PassResult
runnerPass(const Workload& w, const std::vector<SweepJob>& jobs)
{
    PassResult r;
    std::mutex mtx;
    std::map<std::thread::id, double> lastDone;
    SweepOptions so;
    so.numThreads = w.threads;
    so.quiet = true;
    so.onProgress = [&](const SweepProgress&) {
        double t = nowSec();
        std::lock_guard<std::mutex> lock(mtx);
        lastDone[std::this_thread::get_id()] = t;
    };
    SweepRunner runner(so);
    double t0 = nowSec();
    double c0 = processCpuSec();
    std::vector<JobResult> results = runner.runChecked(jobs);
    r.wallSec = nowSec() - t0;
    r.cpuSec = processCpuSec() - c0;
    // A pool thread is busy from the start until its last job completes
    // (there is always a job to take until the queue empties) and idle
    // from then to the end of the batch.
    for (const auto& [tid, t] : lastDone) {
        r.poolBusySec += t - t0;
    }
    r.poolIdleSec = w.threads * r.wallSec - r.poolBusySec;
    fillPoints(r, results);
    return r;
}

PassResult
directPass(const Workload& w, const std::vector<SweepJob>& jobs,
           const ProgramSet& programs, Tracer& tr, unsigned pass,
           const std::string& rowsPath)
{
    PassResult r;
    r.points.resize(jobs.size());
    r.reports.resize(jobs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> cycles{0};
    std::uint64_t passSpan = tr.newId();

    auto work = [&](unsigned t) {
        ReportSink sink;
        sink.openJson(rowsPath + "." + std::to_string(t) + ".jsonl");
        for (std::size_t i; (i = next++) < jobs.size();) {
            const SweepJob& job = jobs[i];
            SimConfig cfg = job.config;
            cfg.profile.enabled = true;
            const Program& prog = *programs.programs[programs.jobProgram[i]];
            std::uint64_t pointSpan = tr.newId();
            timedSpan(tr, "sim.point", pass, passSpan, [&] {
                try {
                    std::unique_ptr<Cpu> cpu;
                    timedSpan(tr, "sim.cpu_ctor", pass, pointSpan, [&] {
                        cpu = std::make_unique<Cpu>(prog, cfg);
                    });
                    timedSpan(tr, "sim.warmup", pass, pointSpan, [&] {
                        cpu->runUntilRetired(job.opts.warmupInstrs);
                    });
                    cpu->clearStats();
                    timedSpan(tr, "sim.measure", pass, pointSpan, [&] {
                        cpu->runUntilRetired(job.opts.measureInstrs);
                    });
                    Report rep;
                    timedSpan(tr, "sim.collect_report", pass, pointSpan, [&] {
                        rep = collectReport(*cpu, job.profile.name, job.label);
                    });
                    std::string line;
                    timedSpan(tr, "stats.row", pass, pointSpan, [&] {
                        line = reportToJsonLine(rep);
                        sink.write(rep);
                    });
                    cycles += cpu->now();
                    r.points[i] = {true, std::move(line), ""};
                    r.reports[i] = std::move(rep);
                } catch (const SimError& e) {
                    r.points[i] = {false, "",
                                   std::string(e.kindName()) + ": " + e.what()};
                } catch (const std::exception& e) {
                    r.points[i] = {false, "",
                                   std::string("exception: ") + e.what()};
                }
            }, pointSpan);
        }
    };

    double t0 = nowSec();
    double c0 = processCpuSec();
    timedSpan(tr, "sim.direct_pass", pass, 0, [&] {
        std::vector<std::thread> pool;
        for (unsigned t = 1; t < w.threads; ++t) {
            pool.emplace_back(work, t);
        }
        work(0);
        for (std::thread& th : pool) {
            th.join();
        }
    }, passSpan);
    r.wallSec = nowSec() - t0;
    r.cpuSec = processCpuSec() - c0;
    r.simCycles = cycles.load();
    return r;
}

PassResult
tcpPass(const Workload& w, const std::vector<SweepJob>& jobs,
        std::uint64_t seed, Tracer& tr, unsigned pass, bool pollStatus)
{
    PassResult r;
    const std::string exe = selfExe();
    const std::string udpTop = exe.substr(0, exe.rfind('/') + 1) + "udp_top";
    std::uint64_t passSpan = tr.newId();

    double t0 = nowSec();
    double c0 = processCpuSec();
    CoordinatorOptions co;
    co.name = "perfbench-" + w.name;
    co.endpoint = "tcp:127.0.0.1:0";
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    if (!coord.start(&err)) {
        throw std::runtime_error("coordinator: " + err);
    }
    const std::string endpoint = coord.endpoint();

    Workers workers;
    for (unsigned k = 0; k < w.threads; ++k) {
        pid_t pid = spawn({exe, "--role", "worker", "--workload", w.name,
                           "--seed", std::to_string(seed), "--connect",
                           endpoint, "--name", workerName(k)},
                          -1, false);
        if (pid < 0) {
            throw std::runtime_error("cannot spawn worker process");
        }
        workers.kids.push_back({pid, nowSec()});
    }

    // While the coordinator runs: poll STATUS when asked (it is answered
    // until the post-drain grace period ends, so the last snapshot is
    // final), and stop the coordinator if every worker has exited or the
    // pass overruns, so a broken worker cannot hang the run.
    std::jthread monitor([&](std::stop_token st) {
        while (!st.stop_requested()) {
            if (pollStatus) {
                obs::SweepStatus s;
                if (queryStatus(udpTop, endpoint, &s)) {
                    r.status = std::move(s);
                    r.haveStatus = true;
                }
            }
            bool alive = false;
            for (const Workers::Kid& k : workers.kids) {
                siginfo_t info{};
                alive |= ::waitid(P_PID, static_cast<id_t>(k.pid), &info,
                                  WEXITED | WNOHANG | WNOWAIT) == 0 &&
                         info.si_pid == 0;
            }
            if (!alive || nowSec() - t0 > kPassDeadlineSec) {
                coord.requestStop();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
    std::vector<JobResult> results;
    timedSpan(tr, "sweepd.coordinator_run", pass, passSpan,
              [&] { results = coord.run(); });
    monitor.request_stop();
    monitor.join();

    while (!workers.kids.empty()) {
        int st = 0;
        rusage ru{};
        pid_t pid = ::wait4(-1, &st, 0, &ru);
        if (pid < 0) {
            break;
        }
        double end = nowSec();
        for (std::size_t k = 0; k < workers.kids.size(); ++k) {
            if (workers.kids[k].pid != pid) {
                continue;
            }
            double start = workers.kids[k].startSec;
            double cpu =
                static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec +
                                    ru.ru_stime.tv_usec) *
                    1e-6;
            r.cpuSec += cpu;
            r.workerIdleSec += (end - start) - cpu;
            r.workerRssMb += static_cast<double>(ru.ru_maxrss) / 1024.0;
            if (tr.enabled()) {
                tr.record({"sweepd.worker", pass, threadIndex(), tr.newId(),
                           passSpan, start, end - start});
            }
            if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
                std::fprintf(stderr, "[perfbench] worker %d exited with "
                                     "status %d\n",
                             static_cast<int>(pid), st);
            }
            workers.kids.erase(workers.kids.begin() +
                               static_cast<std::ptrdiff_t>(k));
            break;
        }
    }
    r.wallSec = nowSec() - t0;
    r.cpuSec += processCpuSec() - c0;
    if (tr.enabled()) {
        tr.record({"sweepd.pass", pass, threadIndex(), passSpan, 0, t0,
                   r.wallSec});
    }
    fillPoints(r, results);
    return r;
}

int
workerMain(const Workload& w, std::uint64_t seed, const std::string& endpoint,
           const std::string& name)
{
    std::string err;
    std::unique_ptr<WorkQueue> q = openWorkQueue(endpoint, 5.0, &err);
    if (q == nullptr) {
        std::fprintf(stderr, "[perfbench worker] %s: %s\n", endpoint.c_str(),
                     err.c_str());
        return 2;
    }
    WorkerOptions wo;
    wo.name = name;
    wo.quiet = true;
    WorkerSummary s = runSweepWorker(*q, makeJobs(w, seed), wo);
    return s.queueLost ? 3 : 0;
}

} // namespace perfbench
