/**
 * @file
 * perfbench — runs one benchmark workload at one seed for a fixed
 * measuring time and prints its metrics (README.md).
 *
 *   perfbench --workload fig13 --seed 1 --seconds 20 --trace 0
 *
 * The last stdout line is one JSON object: correct, attempted, failed and
 * metrics (end-to-end metrics with --trace 0, per-layer ones with
 * --trace 1). The line before it is the result row: host fingerprint,
 * instruction counts, seed, pass count, ops and the run's Report digest.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.h"
#include "passes.h"
#include "probe.h"
#include "replay.h"
#include "stats/sink.h"
#include "trace.h"
#include "util.h"
#include "workload/builder.h"
#include "workloads.h"

using namespace perfbench;
using namespace udp;

namespace {

/** Set-up is repeated this many times; setup_s is the median. */
constexpr int kSetupReps = 7;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string role;
    std::string connect;
    std::string name = "worker";
    std::string outDir = ".bench_build/out";
    std::string digestsDir = "perfbench/digests";
    bool pin = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "  [--out-dir DIR] [--digests DIR] [--pin]\n"
                 "workloads:");
    for (const Workload& w : workloads()) {
        std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseU64(const std::string& s)
{
    std::size_t pos = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(s, &pos);
    } catch (const std::exception&) {
        usage();
    }
    if (pos != s.size() || s[0] == '-') {
        usage();
    }
    return v;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--pin") {
            a.pin = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage();
        }
        std::string v = argv[++i];
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = parseU64(v);
        } else if (arg == "--seconds") {
            a.seconds = static_cast<double>(parseU64(v));
        } else if (arg == "--trace") {
            if (v != "0" && v != "1") {
                usage();
            }
            a.trace = v == "1";
        } else if (arg == "--role") {
            a.role = v;
        } else if (arg == "--connect") {
            a.connect = v;
        } else if (arg == "--name") {
            a.name = v;
        } else if (arg == "--out-dir") {
            a.outDir = v;
        } else if (arg == "--digests") {
            a.digestsDir = v;
        } else {
            usage();
        }
    }
    return a;
}

/** Metrics in print order: name -> (value, unit). */
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string
metricsJson(const Metrics& m)
{
    std::string out = "{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        out += (i == 0 ? "\"" : ",\"") + m[i].first + "\":{\"value\":" +
               formatNumber(m[i].second.first) + ",\"unit\":\"" +
               m[i].second.second + "\"}";
    }
    return out + "}";
}

/** Compares a pass's points against the expected digests. */
struct Checker
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** An empty @p exp adopts this pass as the reference. */
    void check(const PassResult& r, const std::vector<SweepJob>& passJobs,
               std::vector<PinnedDigest>* exp)
    {
        std::vector<PinnedDigest> got;
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            const PointResult& p = r.points[i];
            std::string key = passJobs[i].profile.name + " " + passJobs[i].label;
            got.push_back({key, p.ok ? fnv1a(p.line) : 0});
        }
        if (exp->empty()) {
            *exp = got;
        }
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            ++attempted;
            const PointResult& p = r.points[i];
            if (!p.ok) {
                ++failed;
                std::fprintf(stderr, "[perfbench] %s failed: %s\n",
                             got[i].key.c_str(), p.error.c_str());
            } else if (i >= exp->size() || (*exp)[i].key != got[i].key ||
                       (*exp)[i].digest != got[i].digest) {
                ++failed;
                std::fprintf(stderr,
                             "[perfbench] %s: Report digest %s does not "
                             "match the reference\n",
                             got[i].key.c_str(),
                             hex64(got[i].digest).c_str());
            }
        }
        if (exp->size() != r.points.size()) {
            ++failed;
            std::fprintf(stderr,
                         "[perfbench] reference has %zu points, pass ran "
                         "%zu\n",
                         exp->size(), r.points.size());
        }
    }
};

std::uint64_t
runDigest(const PassResult& r)
{
    std::uint64_t h = fnv1a("");
    for (const PointResult& p : r.points) {
        h = fnv1a(p.ok ? hex64(fnv1a(p.line)) : std::string("failed"), h);
    }
    return h;
}

/** Exact model counts of one pass (identical on every pass). */
void
addModelCounts(Metrics& m, const PassResult& r)
{
    double cycles = 0.0;
    double instrs = 0.0;
    double resteers = 0.0;
    double emitted = 0.0;
    double mispredictRate = 0.0;
    double usefulness = 0.0;
    double dropped = 0.0;
    double passed = 0.0;
    for (const Report& rep : r.reports) {
        cycles += static_cast<double>(rep.cycles);
        instrs += static_cast<double>(rep.instructions);
        resteers += static_cast<double>(rep.resteers);
        emitted += static_cast<double>(rep.prefetchesEmitted);
        mispredictRate += rep.condMispredictRate;
        usefulness += rep.usefulness;
        dropped += static_cast<double>(rep.udpDropped);
        passed += static_cast<double>(rep.udpFilteredEmits);
    }
    double n = static_cast<double>(r.reports.size());
    m.push_back({"sim.cycles", {cycles, "count"}});
    m.push_back({"bpred.mispredict_rate", {mispredictRate / n, "ratio"}});
    m.push_back({"frontend.resteers_pki", {resteers * 1e3 / instrs, "1/kinstr"}});
    m.push_back({"prefetch.emitted_pki", {emitted * 1e3 / instrs, "1/kinstr"}});
    m.push_back({"prefetch.usefulness", {usefulness / n, "ratio"}});
    m.push_back({"core.udp_drop_ratio",
                 {dropped + passed == 0.0 ? 0.0 : dropped / (dropped + passed),
                  "ratio"}});
}

/** Per-layer values of one traced in-process (direct) pass. */
struct DirectLayers
{
    double ctorMs = 0, warmupS = 0, measureS = 0, reportUs = 0, rowUs = 0,
           nsPerCycle = 0;
    double phaseSec[obs::kNumProfPhases] = {};
    double phaseTotal = 0;
};

DirectLayers
directLayers(const Tracer& tr, unsigned pass, const PassResult& r)
{
    DirectLayers d;
    auto mean = [&](const char* name) {
        std::size_t n = tr.count(name, pass);
        return n == 0 ? 0.0 : tr.total(name, pass) / static_cast<double>(n);
    };
    d.ctorMs = mean("sim.cpu_ctor") * 1e3;
    d.reportUs = mean("sim.collect_report") * 1e6;
    d.rowUs = mean("stats.row") * 1e6;
    d.warmupS = tr.total("sim.warmup", pass);
    d.measureS = tr.total("sim.measure", pass);
    d.nsPerCycle = r.simCycles == 0 ? 0.0
                                    : (d.warmupS + d.measureS) * 1e9 /
                                          static_cast<double>(r.simCycles);
    for (const Report& rep : r.reports) {
        if (!rep.profile) {
            continue;
        }
        for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
            d.phaseSec[i] += rep.profile->phaseSec[i];
        }
        d.phaseTotal += rep.profile->totalSec;
    }
    return d;
}

int
run(const Args& a)
{
    const Workload* w = findWorkload(a.workload);
    if (w == nullptr) {
        usage();
    }
    std::filesystem::create_directories(a.outDir);
    const std::string tag = w->name + "-seed" + std::to_string(a.seed);
    const std::string pinPath = a.digestsDir + "/" + w->pinSet + ".txt";
    Tracer tr(a.trace);

    // --- set-up: job list and program builds, repeated ------------------
    std::vector<SweepJob> jobs;
    ProgramSet programs;
    std::vector<double> setupSamples;
    std::vector<double> buildSamples;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        double t0 = nowSec();
        double build = 0.0;
        jobs = makeJobs(*w, a.seed);
        ProgramSet ps;
        ps.jobProgram = profileIndexOfJobs(jobs);
        for (const Profile& p : distinctProfiles(jobs)) {
            build += timedSpan(tr, "workload.build", 0, 0, [&] {
                ps.programs.push_back(
                    std::make_unique<const Program>(ProgramBuilder::build(p)));
            });
        }
        setupSamples.push_back(nowSec() - t0);
        buildSamples.push_back(build);
        programs = std::move(ps);
    }
    if (!a.trace) {
        programs = {}; // only traced (direct) passes use them
    }
    if (!w->tcp) {
        // Fill runSim's program cache so every timed pass starts at its
        // first simulated cycle.
        for (const Profile& p : distinctProfiles(jobs)) {
            prewarmProgram(p);
        }
    }

    // --- reference pass ---------------------------------------------------
    // Every run first runs the workload's points at the default seed,
    // untimed, and checks each Report against the pinned digests (--pin
    // writes them instead). The pass also warms the process, so every
    // timed pass starts warm.
    std::vector<PinnedDigest> pins;
    std::string err;
    if (!a.pin && !loadPins(pinPath, &pins, &err)) {
        throw std::runtime_error(err);
    }
    Checker checker;
    std::vector<SweepJob> refJobs = makeJobs(*w, kDefaultSeed);
    PassResult ref = w->tcp ? tcpPass(*w, refJobs, kDefaultSeed, tr, 0, false)
                            : runnerPass(*w, refJobs);
    checker.check(ref, refJobs, &pins);
    if (a.pin) {
        std::string header =
            "# Report digests (64-bit FNV-1a of reportToJsonLine bytes)\n"
            "# workload set " + w->pinSet + ", seed " +
            std::to_string(kDefaultSeed) + ", warmup " +
            std::to_string(w->warmupInstrs) + ", measure " +
            std::to_string(w->measureInstrs) + " instructions\n";
        if (!writePins(pinPath, header, pins)) {
            throw std::runtime_error("cannot write " + pinPath);
        }
    }
    // At other seeds the first timed pass is the reference for the rest.
    std::vector<PinnedDigest> timedRef;
    if (a.seed == kDefaultSeed) {
        timedRef = pins;
    }

    // --- timed phase ----------------------------------------------------
    // Untraced passes give the end-to-end metrics. A traced run
    // alternates them with traced passes (direct Cpu calls with spans
    // and the self-profiler, or a STATUS-polled tcp pass).
    std::vector<double> walls;
    std::vector<double> tracedWalls;
    std::vector<double> rates;
    std::vector<double> busy;
    std::vector<double> idle;
    std::vector<double> workerIdle;
    std::vector<double> probes;
    std::vector<DirectLayers> direct;
    std::vector<ReplayResult> replays;
    PassResult lastDirect;
    PassResult lastStatusPass;
    double maxWorkerRss = ref.workerRssMb;
    std::uint64_t digest = 0;
    const double instrsPerPoint =
        static_cast<double>(w->warmupInstrs + w->measureInstrs);

    auto runDirect = [&](unsigned pass) {
        PassResult r = directPass(*w, jobs, programs, tr, pass,
                                  a.outDir + "/" + tag + ".rows");
        checker.check(r, jobs, &timedRef);
        direct.push_back(directLayers(tr, pass, r));
        replays.push_back(replayStreams(*w, programs, tr, pass));
        return r;
    };

    unsigned pass = 0;
    double lastWall = 0.0;
    double start = nowSec();
    // Stop when another pass would end more than half a pass past the
    // measuring time, so a run lasts --seconds on average.
    while ((a.trace && pass < 2) ||
           nowSec() - start + 0.5 * lastWall < a.seconds) {
        ++pass;
        bool traced = a.trace && pass % 2 == 0;
        if (!a.trace) {
            probes.push_back(probeSec(w->threads));
        }
        PassResult r;
        if (traced && !w->tcp) {
            r = runDirect(pass);
            lastDirect = r;
        } else {
            r = w->tcp ? tcpPass(*w, jobs, a.seed, tr, pass, traced)
                       : runnerPass(*w, jobs);
            checker.check(r, jobs, &timedRef);
        }
        lastWall = r.wallSec;
        std::fprintf(stderr, "[perfbench] pass %u%s: wall %.4f s, cpu %.4f s\n",
                     pass, traced ? " (traced)" : "", r.wallSec, r.cpuSec);
        if (pass == 1) {
            digest = runDigest(r);
        }
        maxWorkerRss = std::max(maxWorkerRss, r.workerRssMb);
        if (traced) {
            tracedWalls.push_back(r.wallSec);
            if (r.haveStatus) {
                lastStatusPass = r;
            }
            continue;
        }
        walls.push_back(r.wallSec);
        std::size_t ok = 0;
        for (const PointResult& p : r.points) {
            ok += p.ok;
        }
        rates.push_back(r.cpuSec > 0.0 ? static_cast<double>(ok) *
                                             instrsPerPoint / 1e6 / r.cpuSec
                                       : 0.0);
        busy.push_back(r.poolBusySec);
        idle.push_back(r.poolIdleSec);
        workerIdle.push_back(r.workerIdleSec);
    }

    if (a.trace && w->tcp) {
        // The sim layer runs inside the workers; measure it here on the
        // same jobs, outside the timed phase.
        lastDirect = runDirect(++pass);
    }

    // --- output -----------------------------------------------------------
    // End-to-end times are scaled to the reference host's speed (probe.h);
    // the result row keeps the raw values.
    const double probe = median(probes);
    const double scale = probe > 0.0 ? kProbeRefSec / probe : 1.0;
    std::string raw;
    if (!a.trace) {
        raw = ",\"probe_s\":" + formatNumber(probe) +
              ",\"raw_wall_s\":" + formatNumber(median(walls)) +
              ",\"raw_sim_minstr_per_cpu_s\":" + formatNumber(median(rates)) +
              ",\"raw_setup_s\":" + formatNumber(median(setupSamples));
    }
    HostInfo h = hostInfo();
    std::printf(
        "{\"perfbench\":\"result\",\"workload\":\"%s\",\"seed\":%llu,"
        "\"default_seed\":%llu,\"held_out_seed\":%llu,\"host\":{\"cpu_model\":"
        "\"%s\",\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\"},"
        "\"threads\":%u,\"warmup_instrs\":%llu,\"measure_instrs\":%llu,"
        "\"points\":%zu,\"passes\":%u,\"ops_attempted\":%llu,"
        "\"ops_failed\":%llu,\"report_digest\":\"%s\"%s}\n",
        w->name.c_str(), static_cast<unsigned long long>(a.seed),
        static_cast<unsigned long long>(kDefaultSeed),
        static_cast<unsigned long long>(kHeldOutSeed),
        jsonEscape(h.cpuModel).c_str(), h.nproc,
        jsonEscape(h.compiler).c_str(), jsonEscape(h.buildType).c_str(),
        w->threads, static_cast<unsigned long long>(w->warmupInstrs),
        static_cast<unsigned long long>(w->measureInstrs), jobs.size(), pass,
        static_cast<unsigned long long>(checker.attempted),
        static_cast<unsigned long long>(checker.failed), hex64(digest).c_str(),
        raw.c_str());

    Metrics m;
    if (!a.trace) {
        m.push_back({"wall_s", {median(walls) * scale, "s"}});
        m.push_back({"sim_minstr_per_cpu_s", {median(rates) / scale, "Minstr/s"}});
        m.push_back({"setup_s", {median(setupSamples) * scale, "s"}});
        m.push_back({"peak_rss_mb", {selfPeakRssMb() + maxWorkerRss, "MiB"}});
    } else {
        auto med = [](const auto& xs, auto field) {
            std::vector<double> v;
            for (const auto& x : xs) {
                v.push_back(x.*field);
            }
            return median(v);
        };
        m.push_back({"workload.build_s", {median(buildSamples), "s"}});
        m.push_back({"workload.walk_ns", {med(replays, &ReplayResult::walkNs), "ns"}});
        m.push_back({"sim.cpu_ctor_ms", {med(direct, &DirectLayers::ctorMs), "ms"}});
        m.push_back({"sim.warmup_s", {med(direct, &DirectLayers::warmupS), "s"}});
        m.push_back({"sim.measure_s", {med(direct, &DirectLayers::measureS), "s"}});
        m.push_back({"sim.report_us", {med(direct, &DirectLayers::reportUs), "us"}});
        m.push_back({"sim.ns_per_cycle", {med(direct, &DirectLayers::nsPerCycle), "ns"}});
        m.push_back({"sim.sweep.busy_s", {median(busy), "s"}});
        m.push_back({"sim.sweep.idle_s", {median(idle), "s"}});
        m.push_back({"stats.row_us", {med(direct, &DirectLayers::rowUs), "us"}});
        static const std::pair<obs::ProfPhase, const char*> kPhases[] = {
            {obs::ProfPhase::Bpred, "bpred.self"},
            {obs::ProfPhase::Backend, "backend.self"},
            {obs::ProfPhase::Fetch, "frontend.fetch_self"},
            {obs::ProfPhase::Icache, "cache.icache_self"},
            {obs::ProfPhase::Prefetch, "prefetch.self"},
            {obs::ProfPhase::Other, "sim.other_self"},
        };
        for (const auto& [phase, name] : kPhases) {
            std::vector<double> pct;
            std::vector<double> sec;
            for (const DirectLayers& d : direct) {
                double s = d.phaseSec[static_cast<std::size_t>(phase)];
                sec.push_back(s);
                pct.push_back(d.phaseTotal == 0.0 ? 0.0 : 100.0 * s / d.phaseTotal);
            }
            m.push_back({std::string(name) + "_pct", {median(pct), "%"}});
            m.push_back({std::string(name) + "_s", {median(sec), "s"}});
        }
        m.push_back({"bpred.tage_ns", {med(replays, &ReplayResult::tageNs), "ns"}});
        m.push_back({"cache.l1i_access_ns", {med(replays, &ReplayResult::l1iAccessNs), "ns"}});
        m.push_back({"core.bloom_ns", {med(replays, &ReplayResult::bloomNs), "ns"}});
        m.push_back({"core.useful_set_lookup_ns",
                     {med(replays, &ReplayResult::usefulLookupNs), "ns"}});
        m.push_back({"core.useful_set_learn_ns",
                     {med(replays, &ReplayResult::usefulLearnNs), "ns"}});
        addModelCounts(m, lastDirect);
        std::uint64_t leases = 0, renewals = 0, retries = 0, expirations = 0,
                      stragglers = 0;
        for (const obs::WorkerStatusRow& row : lastStatusPass.status.workers) {
            leases += row.claims;
            renewals += row.renewals;
            retries += row.retries;
            expirations += row.expirations;
            stragglers += row.stragglers;
        }
        m.push_back({"sweepd.leases", {static_cast<double>(leases), "count"}});
        m.push_back({"sweepd.renewals", {static_cast<double>(renewals), "count"}});
        m.push_back({"sweepd.retries", {static_cast<double>(retries), "count"}});
        m.push_back({"sweepd.expirations", {static_cast<double>(expirations), "count"}});
        m.push_back({"sweepd.stragglers", {static_cast<double>(stragglers), "count"}});
        m.push_back({"sweepd.idle_s", {median(workerIdle), "s"}});
        m.push_back({"obs.trace_overhead_pct",
                     {100.0 * (median(tracedWalls) / median(walls) - 1.0), "%"}});

        std::vector<TraceJob> profiles;
        for (std::size_t i = 0; i < lastDirect.reports.size(); ++i) {
            const Report& rep = lastDirect.reports[i];
            if (rep.profile) {
                profiles.push_back({rep.workload + "/" + rep.configName,
                                    nullptr, rep.profile});
            }
        }
        const std::string tracePath = a.outDir + "/" + tag + ".trace.json";
        const std::string layersPath = a.outDir + "/" + tag + ".layers.json";
        if (!tr.writeChromeTrace(tracePath, profiles)) {
            throw std::runtime_error("cannot write " + tracePath);
        }
        std::FILE* f = std::fopen(layersPath.c_str(), "w");
        if (f == nullptr) {
            throw std::runtime_error("cannot write " + layersPath);
        }
        std::fprintf(f,
                     "{\"workload\":\"%s\",\"seed\":%llu,"
                     "\"replay_checksum\":%llu,\"metrics\":%s}\n",
                     w->name.c_str(), static_cast<unsigned long long>(a.seed),
                     static_cast<unsigned long long>(replays.back().checksum),
                     metricsJson(m).c_str());
        std::fclose(f);
        std::fprintf(stderr, "[perfbench] trace %s, layer summary %s\n",
                     tracePath.c_str(), layersPath.c_str());
    }

    bool correct = checker.failed == 0 && checker.attempted != 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted),
                static_cast<unsigned long long>(checker.failed),
                metricsJson(m).c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a = parseArgs(argc, argv);
    if (a.workload.empty()) {
        usage();
    }
    try {
        if (a.role == "worker") {
            const Workload* w = findWorkload(a.workload);
            if (w == nullptr || a.connect.empty()) {
                usage();
            }
            return workerMain(*w, a.seed, a.connect, a.name);
        }
        if (!a.role.empty()) {
            usage();
        }
        return run(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
        return 1;
    }
}
