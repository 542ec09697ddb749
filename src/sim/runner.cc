#include "sim/runner.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "sim/simerror.h"
#include "stats/tracefile.h"
#include "workload/builder.h"

namespace udp {

namespace {

/**
 * Program construction is expensive for MB-scale footprints: cache by
 * (profile name, seed, footprint).
 *
 * Concurrency: the map mutex only guards entry lookup/creation; the build
 * itself runs under a per-entry once_flag, so the first caller of a key
 * builds exactly once while builds for *different* keys proceed in
 * parallel. std::map nodes are address-stable, entries are never erased,
 * and the built Program is immutable, so the returned reference stays
 * valid and race-free for the process lifetime.
 */
struct ProgramCacheEntry
{
    std::once_flag once;
    std::unique_ptr<const Program> prog;
};

const Program&
cachedProgram(const Profile& p)
{
    static std::map<std::string, ProgramCacheEntry> cache;
    static std::mutex mtx;
    std::string key = p.name + "#" + std::to_string(p.seed) + "#" +
                      std::to_string(p.codeFootprintKB);
    ProgramCacheEntry* entry;
    {
        std::lock_guard<std::mutex> lock(mtx);
        entry = &cache[key];
    }
    std::call_once(entry->once, [&] {
        entry->prog =
            std::make_unique<const Program>(ProgramBuilder::build(p));
    });
    return *entry->prog;
}

} // namespace

Report
collectReport(const Cpu& cpu, std::string workload, std::string config_name)
{
    Report r;
    r.workload = std::move(workload);
    r.configName = std::move(config_name);

    const MemSysStats& m = cpu.mem().stats();
    const CacheStats& l1i = cpu.mem().l1iStats();
    const FdipStats& fdip = cpu.fdip().stats();
    const FetchStats& fs = cpu.fetch().stats();
    const FrontendStats& fe = cpu.frontend().stats();
    const BpuStats& bp = cpu.bpu().stats();

    r.instructions = cpu.retired();
    r.cycles = cpu.cyclesSinceClear();
    r.ipc = ratio(static_cast<double>(r.instructions),
                  static_cast<double>(r.cycles));

    double kilo = static_cast<double>(r.instructions) / 1000.0;
    r.icacheMpki = ratio(static_cast<double>(m.ifetchMisses), kilo);
    r.mshrHitsPki = ratio(static_cast<double>(m.ifetchMshrHits), kilo);
    // Timeliness over prefetched lines: a demand access either found the
    // prefetched line resident (timely) or merged with its in-flight fill
    // (untimely). Matches the paper's Table III / Fig. 4 value range.
    r.timeliness =
        ratio(static_cast<double>(m.ifetchTimelyPrefetchHits),
              static_cast<double>(m.ifetchTimelyPrefetchHits +
                                  m.pfMshrMergesHw));
    r.l1HitRatio =
        ratio(static_cast<double>(m.ifetchL1Hits),
              static_cast<double>(m.ifetchL1Hits + m.ifetchMshrHits));
    r.lostInstrPerKilo =
        ratio(static_cast<double>(fs.lostSlotsIcacheMiss), kilo);

    r.prefetchesEmitted = fdip.emitted;
    r.onPathRatio =
        ratio(static_cast<double>(fdip.emittedOnPath),
              static_cast<double>(fdip.emittedOnPath + fdip.emittedOffPath));

    double useful_true = static_cast<double>(l1i.prefetchHitsTrue +
                                             m.pfMshrMergesTrue);
    double useless_true = static_cast<double>(l1i.prefetchUnusedTrue);
    r.usefulness = ratio(useful_true, useful_true + useless_true);

    double useful_hw =
        static_cast<double>(l1i.prefetchHits + m.pfMshrMergesHw);
    double useless_hw = static_cast<double>(l1i.prefetchUnused);
    r.usefulnessHw = ratio(useful_hw, useful_hw + useless_hw);

    r.avgFtqOccupancy = cpu.ftq().stats().avgOccupancy();
    r.branchMpki = ratio(static_cast<double>(bp.condMispredicts), kilo);
    r.condMispredictRate =
        ratio(static_cast<double>(bp.condMispredicts),
              static_cast<double>(bp.condPredictions));
    r.resteers = fe.resteers;
    r.decodeCorrections = fs.decodeBtbCorrections;

    if (const UdpEngine* u = cpu.udp()) {
        r.udpDropped = u->stats().droppedFiltered;
        r.udpFilteredEmits = u->stats().emittedFiltered;
        r.udpLearned = u->usefulSetStats().learns;
    }

    if (Telemetry* t = cpu.telemetry()) {
        // Classify still-live prefetches as Pending so the taxonomy
        // identity (timely+late+unused+polluting+pending == issued) holds.
        t->finalize();
        r.telemetry = t->snapshot();
    }
    if (obs::CycleProfiler* p = cpu.profiler()) {
        r.profile = p->snapshot();
    }
    return r;
}

Report
runSim(const Profile& profile, const SimConfig& cfg, const RunOptions& opts,
       std::string config_name)
{
    const Program& prog = cachedProgram(profile);
    Cpu cpu(prog, cfg);
    try {
        cpu.runUntilRetired(opts.warmupInstrs);
        cpu.clearStats();
        cpu.runUntilRetired(opts.measureInstrs);
    } catch (const SimError& e) {
        // Post-mortem trace: annotate the telemetry snapshot with the
        // error (kind, component, Cpu::dumpState()) and drop a final
        // Chrome-trace slice before propagating the failure.
        Telemetry* t = cpu.telemetry();
        if (t && !cfg.telemetry.errorTracePath.empty()) {
            t->noteError(e.kindName(), e.component(), e.cycle(), e.dump());
            t->finalize();
            TraceJob tj;
            tj.name = profile.name + "/" + config_name;
            tj.snap = t->snapshot();
            if (obs::CycleProfiler* p = cpu.profiler()) {
                tj.prof = p->snapshot();
            }
            writeChromeTrace(cfg.telemetry.errorTracePath, {tj});
        }
        throw;
    }
    return collectReport(cpu, profile.name, std::move(config_name));
}

void
prewarmProgram(const Profile& profile)
{
    cachedProgram(profile);
}

bool
parsePositiveEnv(const char* name, std::uint64_t* out)
{
    const char* text = std::getenv(name);
    if (text == nullptr) {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    bool overflow = errno == ERANGE;
    // Reject empty strings, trailing junk ("1e6", "100k"), negatives
    // (strtoull silently wraps them), zero and overflow.
    if (end == text || *end != '\0' || text[0] == '-' || v == 0 ||
        overflow) {
        std::fprintf(stderr,
                     "[udp] ignoring %s=\"%s\": expected a positive "
                     "integer; using the default\n",
                     name, text);
        return false;
    }
    *out = v;
    return true;
}

RunOptions
envRunOptions(RunOptions defaults)
{
    std::uint64_t v = 0;
    if (parsePositiveEnv("UDP_BENCH_WARMUP", &v)) {
        defaults.warmupInstrs = v;
    }
    if (parsePositiveEnv("UDP_BENCH_INSTR", &v)) {
        defaults.measureInstrs = v;
    }
    return defaults;
}

double
geomean(const std::vector<double>& xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double x : xs) {
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
correlation(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size() || a.size() < 2) {
        return 0.0;
    }
    double n = static_cast<double>(a.size());
    double ma = 0.0;
    double mb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= n;
    mb /= n;
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va == 0.0 || vb == 0.0) {
        return 0.0;
    }
    return cov / std::sqrt(va * vb);
}

StatSet
Report::toStatSet() const
{
    StatSet s;
    s.add("instructions", static_cast<double>(instructions));
    s.add("cycles", static_cast<double>(cycles));
    s.add("ipc", ipc);
    s.add("icache_mpki", icacheMpki);
    s.add("mshr_hits_pki", mshrHitsPki);
    s.add("timeliness", timeliness);
    s.add("l1_hit_ratio", l1HitRatio);
    s.add("lost_instr_per_kilo", lostInstrPerKilo);
    s.add("prefetches_emitted", static_cast<double>(prefetchesEmitted));
    s.add("onpath_ratio", onPathRatio);
    s.add("usefulness", usefulness);
    s.add("usefulness_hw", usefulnessHw);
    s.add("avg_ftq_occupancy", avgFtqOccupancy);
    s.add("branch_mpki", branchMpki);
    s.add("cond_mispredict_rate", condMispredictRate);
    s.add("resteers", static_cast<double>(resteers));
    s.add("decode_corrections", static_cast<double>(decodeCorrections));
    s.add("udp_dropped", static_cast<double>(udpDropped));
    s.add("udp_filtered_emits", static_cast<double>(udpFilteredEmits));
    s.add("udp_learned", static_cast<double>(udpLearned));
    return s;
}

} // namespace udp
