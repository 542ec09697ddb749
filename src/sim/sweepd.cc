#include "sim/sweepd.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "sim/manifest.h"
#include "sim/simconfig.h"
#include "stats/sink.h"
#include "workload/profile.h"

namespace udp {

namespace {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
wallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

void
sleepSec(double sec)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(sec));
}

bool
presetByName(const std::string& preset, unsigned ftq, SimConfig* out,
             std::string* err)
{
    if (preset == "fdip" || preset == "baseline") {
        *out = ftq != 0 ? presets::fdipWithFtq(ftq)
                        : presets::fdipBaseline();
        return true;
    }
    if (ftq != 0) {
        *err = "preset \"" + preset + "\" does not take an ftq override";
        return false;
    }
    if (preset == "perfect_icache") {
        *out = presets::perfectIcache();
    } else if (preset == "no_prefetch") {
        *out = presets::noPrefetch();
    } else if (preset == "udp8k") {
        *out = presets::udp8k();
    } else if (preset == "udp_infinite") {
        *out = presets::udpInfinite();
    } else if (preset == "big_icache40k") {
        *out = presets::bigIcache40k();
    } else if (preset == "eip8k") {
        *out = presets::eip8k();
    } else {
        *err = "unknown preset \"" + preset + "\"";
        return false;
    }
    return true;
}

std::string
sanitizeName(const std::string& name)
{
    std::string out;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                  c == '.';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("worker") : out;
}

} // namespace

// --- sweep spec ------------------------------------------------------------

std::string
sweepSpecToJson(const SweepSpec& spec)
{
    std::string out = "{\"name\":\"" + jsonEscape(spec.name) +
                      "\",\"warmup_instrs\":" +
                      std::to_string(spec.warmupInstrs) +
                      ",\"measure_instrs\":" +
                      std::to_string(spec.measureInstrs) +
                      ",\"workloads\":[";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        out += "\"" + jsonEscape(spec.workloads[i]) + "\"";
    }
    out += "],\"configs\":[";
    for (std::size_t i = 0; i < spec.configs.size(); ++i) {
        const SpecConfig& c = spec.configs[i];
        if (i != 0) {
            out += ',';
        }
        out += "{\"label\":\"" + jsonEscape(c.label) + "\",\"preset\":\"" +
               jsonEscape(c.preset) +
               "\",\"ftq\":" + std::to_string(c.ftq) + "}";
    }
    out += "]}";
    return out;
}

bool
sweepSpecFromJson(const std::string& json, SweepSpec* out, std::string* err)
{
    JsonValue root;
    std::string why;
    if (!parseJson(json, &root, &why) || !root.isObject()) {
        *err = "spec must be one JSON object" +
               (why.empty() ? std::string() : ": " + why);
        return false;
    }
    auto bad = [err](const std::string& key, const char* what) {
        *err = "spec key \"" + key + "\" " + what;
        return false;
    };
    const char* kCount = "must be a whole decimal number in range";
    SweepSpec spec;
    if (!root.getOptional("name", &spec.name)) {
        return bad("name", "must be a string");
    }
    if (!root.get("warmup_instrs", &spec.warmupInstrs)) {
        return bad("warmup_instrs", kCount);
    }
    if (!root.get("measure_instrs", &spec.measureInstrs)) {
        return bad("measure_instrs", kCount);
    }
    const JsonValue* v = root.find("workloads");
    if (v) {
        bool ok = v->isArray();
        for (std::size_t i = 0; ok && i < v->items.size(); ++i) {
            ok = v->items[i].as(&spec.workloads.emplace_back());
        }
        if (!ok) {
            return bad("workloads", "must be an array of strings");
        }
    }
    v = root.find("configs");
    if (!v || !v->isArray() || v->items.empty()) {
        return bad("configs", "must be a non-empty array of objects");
    }
    for (std::size_t i = 0; i < v->items.size(); ++i) {
        const JsonValue& el = v->items[i];
        std::string at = "configs[" + std::to_string(i) + "]";
        SpecConfig c;
        std::uint64_t ftq = 0;
        if (!el.get("label", &c.label)) {
            return bad(at + ".label", "must be a string");
        }
        if (!el.get("preset", &c.preset)) {
            return bad(at + ".preset", "must be a string");
        }
        if (!el.getOptional("ftq", &ftq) ||
            ftq > std::numeric_limits<unsigned>::max()) {
            return bad(at + ".ftq", kCount);
        }
        c.ftq = static_cast<unsigned>(ftq);
        spec.configs.push_back(std::move(c));
    }
    *out = std::move(spec);
    return true;
}

bool
expandSweepSpec(const SweepSpec& spec, std::vector<SweepJob>* out,
                std::string* err)
{
    std::vector<std::string> names = spec.workloads;
    bool all = names.empty();
    for (const std::string& n : names) {
        if (n == "all") {
            all = true;
        }
    }
    if (all) {
        names.clear();
        for (const Profile& p : datacenterProfiles()) {
            names.push_back(p.name);
        }
    }
    RunOptions ro;
    ro.warmupInstrs = spec.warmupInstrs;
    ro.measureInstrs = spec.measureInstrs;
    out->clear();
    for (const std::string& w : names) {
        const Profile* prof;
        try {
            prof = &profileByName(w);
        } catch (const std::out_of_range&) {
            *err = "unknown workload \"" + w + "\"";
            return false;
        }
        for (const SpecConfig& c : spec.configs) {
            SweepJob job;
            if (!presetByName(c.preset, c.ftq, &job.config, err)) {
                return false;
            }
            job.profile = *prof;
            job.opts = ro;
            job.label = c.label;
            out->push_back(std::move(job));
        }
    }
    if (out->empty()) {
        *err = "spec expands to zero jobs";
        return false;
    }
    return true;
}

// --- worker ----------------------------------------------------------------

WorkerSummary
runSweepWorker(WorkQueue& queue, const std::vector<SweepJob>& jobs,
               const WorkerOptions& opts)
{
    WorkerSummary sum;
    std::vector<std::uint64_t> hashes(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        hashes[i] = sweepJobHash(jobs[i], i);
    }

    std::string shardPath;
    if (!opts.shardDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.shardDir, ec);
        shardPath = opts.shardDir + "/" + sanitizeName(opts.name) +
                    ".shard.jsonl";
    }
    auto flushLocal = [&](const ManifestEntry& e) {
        if (shardPath.empty()) {
            return;
        }
        std::ofstream out(shardPath, std::ios::out | std::ios::app);
        if (!out.is_open()) {
            return;
        }
        out << manifestEntryToJsonLine(e) << '\n';
        out.flush();
        ++sum.flushedLocal;
    };

    for (;;) {
        if (opts.maxJobs != 0 && sum.executed >= opts.maxJobs) {
            break;
        }
        JobLease lease;
        ClaimOutcome co = queue.claim(opts.name, &lease);
        if (co == ClaimOutcome::Drained) {
            break;
        }
        if (co == ClaimOutcome::Lost) {
            sum.queueLost = true;
            break;
        }
        if (co == ClaimOutcome::NoWork) {
            sleepSec(opts.pollSec > 0.0 ? opts.pollSec
                                        : queue.noWorkRetrySec());
            continue;
        }

        ManifestEntry entry;
        entry.hash = lease.hash;
        entry.index = lease.index;
        entry.worker = opts.name;

        // The lease is only (hash, index): verify our own deterministic
        // expansion agrees before running anything. A divergent worker
        // (stale binary, different spec) must not push a wrong Report
        // under a valid hash.
        if (lease.index >= jobs.size() ||
            hashes[lease.index] != lease.hash) {
            entry.ok = false;
            entry.errorKind = "spec_mismatch";
            if (lease.index < jobs.size()) {
                entry.workload = jobs[lease.index].profile.name;
                entry.label = jobs[lease.index].label;
            }
            ++sum.mismatches;
            obs::counter("sweep_worker.spec_mismatches").add(1);
            if (!opts.quiet) {
                obs::Event(obs::LogLevel::Warn, opts.name, "spec_mismatch")
                    .u64("job", lease.index)
                    .emit();
            }
            if (queue.push(lease, entry) == PushOutcome::Lost) {
                sum.queueLost = true;
                break;
            }
            continue;
        }

        // Heartbeat at ttl/3 while the job runs, stopped (and joined)
        // before push so queue access is serialized per worker.
        std::atomic<bool> stopHb{false};
        double interval = std::max(0.05, lease.ttlSec / 3.0);
        std::thread hb([&] {
            double slept = 0.0;
            while (!stopHb.load()) {
                sleepSec(0.02);
                slept += 0.02;
                if (slept >= interval) {
                    slept = 0.0;
                    queue.renew(lease);
                }
            }
        });

        if (opts.jobDelayMs != 0) {
            sleepSec(static_cast<double>(opts.jobDelayMs) / 1000.0);
        }
        ++sum.executed;
        obs::counter("sweep_worker.jobs_executed").add(1);
        JobResult jr = runJobChecked(jobs[lease.index], lease.index,
                                     opts.exec);
        stopHb.store(true);
        hb.join();

        entry.workload = jobs[lease.index].profile.name;
        entry.label = jobs[lease.index].label;
        entry.ok = jr.ok;
        if (jr.ok) {
            entry.reportJson = reportToJsonLine(jr.report);
        } else {
            entry.errorKind = jr.error.kind;
        }

        switch (queue.push(lease, entry)) {
        case PushOutcome::Recorded:
            jr.ok ? ++sum.completed : ++sum.failures;
            break;
        case PushOutcome::Duplicate:
            ++sum.duplicates;
            break;
        case PushOutcome::Lost:
            // Coordinator gone mid-push: the result is not wasted — the
            // local shard manifest is absorbed on coordinator restart.
            sum.queueLost = true;
            if (entry.ok) {
                flushLocal(entry);
            }
            obs::counter("sweep_worker.queue_lost").add(1);
            if (!opts.quiet) {
                obs::Event(obs::LogLevel::Warn, opts.name, "queue_lost")
                    .u64("job", lease.index)
                    .str("result", entry.ok ? "flushed_local" : "dropped")
                    .emit();
            }
            break;
        }
        if (sum.queueLost) {
            break;
        }
    }
    return sum;
}

// --- coordinator -----------------------------------------------------------

struct SweepCoordinator::Impl
{
    std::vector<SweepJob> jobs;
    CoordinatorOptions opts;
    QueueEndpoint ep;

    std::vector<std::uint64_t> hashes;
    std::unordered_map<std::uint64_t, std::size_t> hashToIndex;

    std::vector<ManifestEntry> finals;
    std::vector<char> haveFinal;
    std::size_t finalCount = 0;
    std::size_t failedCount = 0;
    std::size_t resumedCount = 0;

    SweepManifest manifest;
    std::atomic<bool> stop{false};
    bool started = false;
    double startTime = 0.0;

    std::unique_ptr<LeaseTable> table;
    TcpQueueServer server;

    /** One status document (obs/status.h JSON) from live state. */
    std::string buildStatus()
    {
        double now = nowSec();
        obs::SweepStatus st;
        st.name = opts.name;
        st.transport = "tcp";
        st.tsMs = wallMs();
        st.total = jobs.size();
        st.done = finalCount - failedCount;
        st.failed = failedCount;
        st.resumed = resumedCount;
        st.elapsedSec = started ? now - startTime : 0.0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            st.jobStates.push_back(table->jobState(i));
        }
        for (const LeaseWorkerStats& ws : table->workerStats()) {
            obs::WorkerStatusRow row;
            row.name = ws.worker;
            row.activeLeases = ws.activeLeases;
            row.claims = ws.claims;
            row.completed = ws.completions;
            row.failed = ws.failures;
            row.retries = ws.retries;
            row.stragglers = ws.stragglers;
            row.renewals = ws.renewals;
            row.expirations = ws.expirations;
            row.lastSeenSec =
                ws.lastSeenSec >= 0.0 ? now - ws.lastSeenSec : -1.0;
            st.workers.push_back(std::move(row));
        }
        for (char c : st.jobStates) {
            if (c == obs::kJobPending) {
                ++st.pending;
            } else if (c == obs::kJobLeased) {
                ++st.leased;
            }
        }
        std::size_t fresh =
            finalCount > resumedCount ? finalCount - resumedCount : 0;
        st.etaSec = fresh == 0
                        ? -1.0
                        : st.elapsedSec / static_cast<double>(fresh) *
                              static_cast<double>(jobs.size() - finalCount);
        st.metricsJson = obs::Registry::global().snapshotJson();
        return sweepStatusToJson(st);
    }

    /** Records a job's final outcome exactly once. */
    void recordFinal(std::size_t idx, ManifestEntry e, bool toManifest)
    {
        if (haveFinal[idx]) {
            return;
        }
        haveFinal[idx] = 1;
        ++finalCount;
        obs::counter("sweepd.jobs_final").add(1);
        if (!e.ok) {
            ++failedCount;
            obs::counter("sweepd.jobs_failed").add(1);
        }
        if (toManifest && manifest.isOpen()) {
            manifest.record(e);
        }
        finals[idx] = std::move(e);
    }

    void postProgress()
    {
        SweepProgress p;
        p.done = finalCount;
        p.total = jobs.size();
        p.failed = failedCount;
        p.resumed = resumedCount;
        p.elapsedSec = nowSec() - startTime;
        std::size_t fresh = p.done > p.resumed ? p.done - p.resumed : 0;
        p.etaSec = fresh == 0 ? 0.0
                              : p.elapsedSec / static_cast<double>(fresh) *
                                    static_cast<double>(p.total - p.done);
        if (opts.onProgress) {
            opts.onProgress(p);
        } else if (!opts.quiet) {
            obs::Event ev(obs::LogLevel::Info, "sweepd", "progress");
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
    }

    /** Absorbs worker shard files: completed entries a worker flushed
     *  locally when it could not reach the coordinator. */
    void absorbShards()
    {
        if (opts.shardDir.empty()) {
            return;
        }
        std::error_code ec;
        std::filesystem::directory_iterator it(opts.shardDir, ec);
        if (ec) {
            return;
        }
        for (const auto& de : it) {
            std::string name = de.path().filename().string();
            if (name.size() < 12 ||
                name.compare(name.size() - 12, 12, ".shard.jsonl") != 0) {
                continue;
            }
            for (ManifestEntry& e : readManifestFile(de.path().string())) {
                auto hit = hashToIndex.find(e.hash);
                if (hit == hashToIndex.end() || !e.ok) {
                    continue; // failures re-run under the lease policy
                }
                std::size_t idx = hit->second;
                if (haveFinal[idx]) {
                    continue;
                }
                table->markDone(idx);
                recordFinal(idx, std::move(e), true);
            }
        }
    }

    void tick()
    {
        server.poll(opts.pollSec);
        table->tick(nowSec());
        // Jobs finally failed by expiry (tick) have no push to hook:
        // harvest them here.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::string* kind = table->finalErrorKind(i);
            if (kind == nullptr || haveFinal[i]) {
                continue;
            }
            ManifestEntry e;
            e.hash = hashes[i];
            e.index = i;
            e.workload = jobs[i].profile.name;
            e.label = jobs[i].label;
            e.ok = false;
            e.errorKind = *kind;
            recordFinal(i, std::move(e), true);
        }
    }
};

SweepCoordinator::SweepCoordinator(std::vector<SweepJob> jobs,
                                   CoordinatorOptions opts)
    : impl(std::make_unique<Impl>())
{
    impl->jobs = std::move(jobs);
    impl->opts = std::move(opts);
}

SweepCoordinator::~SweepCoordinator() = default;

bool
SweepCoordinator::start(std::string* err)
{
    Impl& im = *impl;
    if (!parseQueueEndpoint(im.opts.endpoint, true, &im.ep, err)) {
        return false;
    }
    im.hashes.resize(im.jobs.size());
    im.finals.resize(im.jobs.size());
    im.haveFinal.assign(im.jobs.size(), 0);
    for (std::size_t i = 0; i < im.jobs.size(); ++i) {
        im.hashes[i] = sweepJobHash(im.jobs[i], i);
        im.hashToIndex[im.hashes[i]] = i;
    }

    // Checkpoint manifest first: resumed completions never hit the queue.
    if (!im.opts.manifestPath.empty()) {
        if (!im.manifest.open(im.opts.manifestPath, im.opts.resume)) {
            *err = "cannot open manifest " + im.opts.manifestPath;
            return false;
        }
        if (im.opts.resume) {
            for (std::size_t i = 0; i < im.jobs.size(); ++i) {
                const ManifestEntry* e =
                    im.manifest.findCompleted(im.hashes[i]);
                // The workload/label binding must match the job the
                // hash names: a spliced manifest line can attach a
                // valid hash to another record's fields, and such an
                // entry is re-run, never replayed.
                if (e != nullptr &&
                    e->workload == im.jobs[i].profile.name &&
                    e->label == im.jobs[i].label) {
                    ++im.resumedCount;
                    im.recordFinal(i, *e, false); // already on disk
                }
            }
            if (!im.opts.quiet && im.resumedCount != 0) {
                obs::Event(obs::LogLevel::Info, "sweepd", "resumed")
                    .u64("resumed", im.resumedCount)
                    .u64("total", im.jobs.size())
                    .str("manifest", im.opts.manifestPath)
                    .emit();
            }
        }
    }

    im.table = std::make_unique<LeaseTable>(im.hashes, im.opts.policy);
    for (std::size_t i = 0; i < im.jobs.size(); ++i) {
        if (im.haveFinal[i]) {
            im.table->markDone(i);
        }
    }
    im.absorbShards();
    TcpQueueServer::Handlers h;
    h.spec = [&im] { return im.opts.specJson; };
    h.total = [&im] { return im.jobs.size(); };
    h.retrySec = [&im] { return im.opts.policy.noWorkRetrySec; };
    h.status = [&im] { return im.buildStatus(); };
    h.claim = [&im](const std::string& worker, JobLease* out) {
        return im.table->claim(nowSec(), worker, out);
    };
    h.renew = [&im](std::uint64_t token) {
        return im.table->renew(nowSec(), token);
    };
    h.push = [&im](std::uint64_t token, const ManifestEntry& entry) {
        std::size_t idx = im.table->leaseIndex(token);
        if (idx == LeaseTable::npos || im.hashes[idx] != entry.hash ||
            (entry.ok && !manifestEntryIsConsistent(entry))) {
            return LeaseTable::Push::Unknown;
        }
        LeaseTable::Push pr = im.table->push(nowSec(), token, entry.ok,
                                             entry.errorKind);
        if (pr == LeaseTable::Push::RecordedFinal) {
            im.recordFinal(idx, entry, true);
        }
        return pr;
    };
    if (!im.server.listen(im.ep.host, im.ep.port, std::move(h), err)) {
        return false;
    }
    im.startTime = nowSec();
    im.started = true;
    return true;
}

std::string
SweepCoordinator::endpoint() const
{
    std::string host = impl->ep.host;
    if (host == "0.0.0.0") {
        host = "127.0.0.1";
    }
    return "tcp:" + host + ":" + std::to_string(impl->server.port());
}

int
SweepCoordinator::port() const
{
    return impl->server.port();
}

std::size_t
SweepCoordinator::totalJobs() const
{
    return impl->jobs.size();
}

void
SweepCoordinator::requestStop()
{
    impl->stop.store(true);
}

std::vector<JobResult>
SweepCoordinator::run()
{
    Impl& im = *impl;
    std::vector<JobResult> results(im.jobs.size());
    if (!im.started) {
        return results;
    }

    std::size_t lastProgress = im.finalCount;
    while (!im.stop.load() && im.finalCount < im.jobs.size()) {
        im.tick();
        if (im.finalCount != lastProgress) {
            lastProgress = im.finalCount;
            im.postProgress();
        }
    }
    // Drain announcement: answer idle workers' next claim with Drained
    // (instead of a closed socket) so they exit cleanly.
    if (!im.stop.load()) {
        double grace =
            nowSec() + std::max(0.5, 2.0 * im.opts.policy.noWorkRetrySec);
        while (nowSec() < grace) {
            im.server.poll(0.05);
        }
    }
    im.server.close();
    im.absorbShards();
    im.manifest.close();

    for (std::size_t i = 0; i < im.jobs.size(); ++i) {
        JobResult& jr = results[i];
        if (!im.haveFinal[i]) {
            jr.skipped = true;
            jr.error.kind = "skipped";
            jr.error.message = "coordinator stopped before completion";
            continue;
        }
        const ManifestEntry& e = im.finals[i];
        if (e.ok) {
            Report r;
            if (reportFromJsonLine(e.reportJson, &r)) {
                jr.report = std::move(r);
                jr.ok = true;
                jr.attempts = 1;
                continue;
            }
            jr.error.kind = "protocol";
            jr.error.message = "recorded report failed to parse";
            continue;
        }
        jr.error.kind = e.errorKind;
        jr.error.message = "distributed job failed (" + e.errorKind + ")";
        jr.attempts = im.opts.policy.maxAttempts;
    }
    // Resumed flags after the loop so moved-from state is not consulted.
    if (im.resumedCount != 0) {
        for (std::size_t i = 0; i < im.jobs.size(); ++i) {
            const ManifestEntry* e =
                im.manifest.findCompleted(im.hashes[i]);
            if (results[i].ok && e != nullptr &&
                e->workload == im.jobs[i].profile.name &&
                e->label == im.jobs[i].label) {
                results[i].resumed = true;
                results[i].attempts = 0;
            }
        }
    }
    return results;
}

} // namespace udp
