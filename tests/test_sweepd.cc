/**
 * @file
 * Tests for the distributed sweep service: the lease state machine
 * (sim/lease.h — expiry/reclaim, bounded retries with deterministic
 * backoff, straggler duplication with first-completion-wins, idempotent
 * completion), the sweep-spec round trip and its deterministic
 * expansion (sim/sweepd.h), the TCP work queue (sim/workqueue.h: strict
 * endpoint parsing, a seeded fuzz of malformed request frames), and the
 * coordinator/worker integration: distributed runs — including one with
 * a worker SIGKILLed mid-lease — produce Reports byte-identical to a
 * serial in-process run, and a restarted coordinator resumes from its
 * checkpoint manifest and from the shard file a worker flushed when its
 * coordinator died, without re-running completed jobs.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sim/lease.h"
#include "sim/manifest.h"
#include "sim/sweep.h"
#include "sim/sweepd.h"
#include "sim/wire.h"
#include "sim/workqueue.h"
#include "stats/sink.h"
#include "sweepd_chaos.h"

namespace udp {
namespace {

// --- helpers ---------------------------------------------------------------

std::string
freshDir(const std::string& tag)
{
    namespace fs = std::filesystem;
    std::string pid = std::to_string(::getpid());
    fs::path p = fs::temp_directory_path() /
                 ("udp_sweepd_test_" + tag + "_" + pid);
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

/** The sweep every integration test runs: 2 workloads x 2 configs at a
 *  tiny instruction window, so one serial pass is the byte-identity
 *  reference for every distributed variant. */
SweepSpec
tinySpec()
{
    SweepSpec s;
    s.name = "tiny";
    s.warmupInstrs = 5'000;
    s.measureInstrs = 10'000;
    s.workloads = {"mediawiki", "drupal"};
    s.configs = {{"fdip32", "fdip", 0}, {"udp8k", "udp8k", 0}};
    return s;
}

std::vector<SweepJob>
tinyJobs()
{
    std::vector<SweepJob> jobs;
    std::string err;
    EXPECT_TRUE(expandSweepSpec(tinySpec(), &jobs, &err)) << err;
    return jobs;
}

/** Serial in-process reference: one JSON line per job, in job order. */
std::vector<std::string>
serialReference(const std::vector<SweepJob>& jobs)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobResult jr = runJobChecked(jobs[i], i);
        EXPECT_TRUE(jr.ok) << jr.error.message;
        lines.push_back(reportToJsonLine(jr.report));
    }
    return lines;
}

void
expectByteIdentical(const std::vector<SweepJob>& jobs,
                    const std::vector<JobResult>& results,
                    const std::vector<std::string>& reference)
{
    ASSERT_EQ(results.size(), jobs.size());
    ASSERT_EQ(reference.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok)
            << "job " << i << " failed: " << results[i].error.kind << " "
            << results[i].error.message;
        EXPECT_EQ(reportToJsonLine(results[i].report), reference[i])
            << "job " << i << " not byte-identical to serial run";
    }
}

LeasePolicy
fastPolicy()
{
    LeasePolicy p;
    p.leaseTtlSec = 1.0;
    p.maxAttempts = 3;
    p.backoffBaseSec = 0.05;
    p.backoffCapSec = 0.2;
    p.stragglerAfterSec = 0.5;
    p.noWorkRetrySec = 0.02;
    return p;
}

// --- LeaseTable: the pure state machine ------------------------------------

TEST(LeaseTable, ClaimExecuteCompleteDrains)
{
    LeaseTable t({11, 22}, LeasePolicy{});
    JobLease a;
    JobLease b;
    ASSERT_EQ(t.claim(0.0, "w1", &a), ClaimOutcome::Granted);
    ASSERT_EQ(t.claim(0.0, "w2", &b), ClaimOutcome::Granted);
    EXPECT_NE(a.token, b.token);
    EXPECT_EQ(a.attempt, 1u);
    // Everything is leased: nothing more to claim yet.
    JobLease c;
    EXPECT_EQ(t.claim(0.0, "w3", &c), ClaimOutcome::NoWork);

    EXPECT_EQ(t.push(1.0, a.token, true, ""), LeaseTable::Push::RecordedFinal);
    EXPECT_EQ(t.push(1.0, b.token, true, ""), LeaseTable::Push::RecordedFinal);
    EXPECT_TRUE(t.drained());
    EXPECT_EQ(t.doneCount(), 2u);
    EXPECT_EQ(t.claim(1.0, "w3", &c), ClaimOutcome::Drained);
}

TEST(LeaseTable, LeaseExpiryReclaimsAndChargesAnAttempt)
{
    LeasePolicy p = fastPolicy();
    LeaseTable t({7}, p);
    JobLease a;
    ASSERT_EQ(t.claim(0.0, "w1", &a), ClaimOutcome::Granted);
    EXPECT_EQ(a.ttlSec, p.leaseTtlSec);

    // Before expiry the lease holds.
    t.tick(0.5);
    EXPECT_EQ(t.activeLeases(0), 1u);

    // Past expiry the job is reclaimed, one attempt charged, and the
    // next claim (after the backoff window) is attempt 2.
    t.tick(2.0);
    EXPECT_EQ(t.activeLeases(0), 0u);
    EXPECT_EQ(t.attemptsUsed(0), 1u);
    JobLease b;
    ASSERT_EQ(t.claim(10.0, "w2", &b), ClaimOutcome::Granted);
    EXPECT_EQ(b.attempt, 2u);
    // The dead worker's token no longer renews...
    EXPECT_FALSE(t.renew(10.0, a.token));
    // ...but its late RESULT is still honored if it lands first: the
    // work is deterministic, so first completion wins regardless of
    // which lease produced it.
    EXPECT_EQ(t.push(10.5, a.token, true, ""),
              LeaseTable::Push::RecordedFinal);
    EXPECT_EQ(t.push(11.0, b.token, true, ""), LeaseTable::Push::Duplicate);
    EXPECT_TRUE(t.drained());
}

TEST(LeaseTable, RenewExtendsTheLease)
{
    LeasePolicy p = fastPolicy();
    LeaseTable t({7}, p);
    JobLease a;
    ASSERT_EQ(t.claim(0.0, "w1", &a), ClaimOutcome::Granted);
    // Heartbeats carry the lease far past its original expiry.
    for (double now = 0.8; now < 5.0; now += 0.8) {
        EXPECT_TRUE(t.renew(now, a.token));
        t.tick(now);
        EXPECT_EQ(t.activeLeases(0), 1u);
    }
    EXPECT_EQ(t.attemptsUsed(0), 1u);
    EXPECT_EQ(t.push(5.0, a.token, true, ""), LeaseTable::Push::RecordedFinal);
}

TEST(LeaseTable, FailedPushRequeuesWithBackoffThenFinallyFails)
{
    LeasePolicy p = fastPolicy();
    p.maxAttempts = 2;
    LeaseTable t({99}, p);
    JobLease a;
    ASSERT_EQ(t.claim(0.0, "w1", &a), ClaimOutcome::Granted);
    EXPECT_EQ(t.push(0.1, a.token, false, "crash"),
              LeaseTable::Push::Requeued);

    // The retry is gated behind the backoff window.
    JobLease b;
    EXPECT_EQ(t.claim(0.1, "w1", &b), ClaimOutcome::NoWork);
    ASSERT_EQ(t.claim(5.0, "w1", &b), ClaimOutcome::Granted);
    EXPECT_EQ(b.attempt, 2u);

    // Exhausting attempts records the final failure kind.
    EXPECT_EQ(t.push(5.1, b.token, false, "crash"),
              LeaseTable::Push::RecordedFinal);
    EXPECT_TRUE(t.drained());
    EXPECT_EQ(t.failedCount(), 1u);
    ASSERT_NE(t.finalErrorKind(0), nullptr);
    EXPECT_EQ(*t.finalErrorKind(0), "crash");
}

TEST(LeaseTable, ExhaustedExpiriesRecordWorkerLost)
{
    LeasePolicy p = fastPolicy();
    p.maxAttempts = 2;
    LeaseTable t({5}, p);
    JobLease a;
    ASSERT_EQ(t.claim(0.0, "w1", &a), ClaimOutcome::Granted);
    t.tick(2.0); // expiry 1: requeued
    JobLease b;
    ASSERT_EQ(t.claim(10.0, "w2", &b), ClaimOutcome::Granted);
    t.tick(20.0); // expiry 2: attempts exhausted, no survivor lease
    EXPECT_TRUE(t.drained());
    ASSERT_NE(t.finalErrorKind(0), nullptr);
    EXPECT_EQ(*t.finalErrorKind(0), "worker_lost");
}

TEST(LeaseTable, BackoffBoundsAndDeterminism)
{
    LeasePolicy p;
    p.backoffBaseSec = 0.5;
    p.backoffCapSec = 30.0;
    p.backoffJitterFrac = 0.25;
    for (unsigned attempt = 2; attempt <= 10; ++attempt) {
        double raw = p.backoffBaseSec;
        for (unsigned k = 2; k < attempt; ++k) {
            raw = std::min(p.backoffCapSec, raw * 2.0);
        }
        for (std::uint64_t hash : {0x1234ull, 0xdeadbeefull, 0x1ull}) {
            double d = LeaseTable::backoffDelaySec(p, attempt, hash);
            EXPECT_GE(d, raw) << "attempt " << attempt;
            EXPECT_LT(d, raw * (1.0 + p.backoffJitterFrac) + 1e-9)
                << "attempt " << attempt;
            // Deterministic: the retry schedule is reproducible.
            EXPECT_EQ(d, LeaseTable::backoffDelaySec(p, attempt, hash));
        }
    }
    // The jitter seed covers (hash, attempt): different jobs retry at
    // different offsets instead of stampeding together.
    EXPECT_NE(LeaseTable::backoffDelaySec(p, 3, 42),
              LeaseTable::backoffDelaySec(p, 3, 43));
}

TEST(LeaseTable, StragglerDuplicateFirstCompletionWins)
{
    LeasePolicy p = fastPolicy();
    p.leaseTtlSec = 100.0; // never expires during the test
    p.stragglerAfterSec = 0.5;
    p.maxDuplicates = 1;
    LeaseTable t({1, 2}, p);
    JobLease a1;
    JobLease a2;
    ASSERT_EQ(t.claim(0.0, "slow", &a1), ClaimOutcome::Granted);
    ASSERT_EQ(t.claim(0.0, "fast", &a2), ClaimOutcome::Granted);
    EXPECT_EQ(t.push(0.2, a2.token, true, ""),
              LeaseTable::Push::RecordedFinal);

    // Too early for a duplicate: the lease is not a straggler yet.
    JobLease d;
    EXPECT_EQ(t.claim(0.3, "idle", &d), ClaimOutcome::NoWork);

    // Once the lease is old enough, the idle worker gets a duplicate
    // lease on the SAME job, same attempt accounting.
    ASSERT_EQ(t.claim(1.0, "idle", &d), ClaimOutcome::Granted);
    EXPECT_EQ(d.index, a1.index);
    EXPECT_EQ(d.hash, a1.hash);
    EXPECT_EQ(t.activeLeases(a1.index), 2u);

    // maxDuplicates bounds the fan-out.
    JobLease d2;
    EXPECT_EQ(t.claim(2.0, "idle2", &d2), ClaimOutcome::NoWork);

    // First completion wins; the loser is discarded as a duplicate.
    EXPECT_EQ(t.push(2.5, d.token, true, ""),
              LeaseTable::Push::RecordedFinal);
    EXPECT_EQ(t.push(3.0, a1.token, true, ""), LeaseTable::Push::Duplicate);
    EXPECT_TRUE(t.drained());
    EXPECT_EQ(t.doneCount(), 2u);
}

TEST(LeaseTable, UnknownTokensAndResumeMarking)
{
    LeaseTable t({11, 22}, LeasePolicy{});
    EXPECT_EQ(t.push(0.0, 0xbad, true, ""), LeaseTable::Push::Unknown);
    EXPECT_FALSE(t.renew(0.0, 0xbad));
    EXPECT_EQ(t.leaseIndex(0xbad), LeaseTable::npos);

    // Checkpoint resume: marked jobs are never issued.
    t.markDone(0);
    JobLease a;
    ASSERT_EQ(t.claim(0.0, "w", &a), ClaimOutcome::Granted);
    EXPECT_EQ(a.index, 1u);
    EXPECT_EQ(t.leaseIndex(a.token), 1u);
    EXPECT_EQ(t.push(0.5, a.token, true, ""), LeaseTable::Push::RecordedFinal);
    EXPECT_TRUE(t.drained());
}

// --- sweep spec ------------------------------------------------------------

TEST(SweepSpec, JsonRoundTripAndDeterministicExpansion)
{
    SweepSpec s = tinySpec();
    std::string json = sweepSpecToJson(s);
    SweepSpec back;
    std::string err;
    ASSERT_TRUE(sweepSpecFromJson(json, &back, &err)) << err;
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.warmupInstrs, s.warmupInstrs);
    EXPECT_EQ(back.measureInstrs, s.measureInstrs);
    EXPECT_EQ(back.workloads, s.workloads);
    ASSERT_EQ(back.configs.size(), s.configs.size());
    for (std::size_t i = 0; i < s.configs.size(); ++i) {
        EXPECT_EQ(back.configs[i].label, s.configs[i].label);
        EXPECT_EQ(back.configs[i].preset, s.configs[i].preset);
        EXPECT_EQ(back.configs[i].ftq, s.configs[i].ftq);
    }

    // The determinism contract the whole protocol rests on: expanding
    // the round-tripped spec yields the identical job hashes, so
    // coordinator and workers agree on job identity.
    std::vector<SweepJob> a;
    std::vector<SweepJob> b;
    ASSERT_TRUE(expandSweepSpec(s, &a, &err)) << err;
    ASSERT_TRUE(expandSweepSpec(back, &b, &err)) << err;
    ASSERT_EQ(a.size(), 4u); // workload-major: mw x 2 configs, drupal x 2
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sweepJobHash(a[i], i), sweepJobHash(b[i], i));
    }
    EXPECT_EQ(a[0].profile.name, "mediawiki");
    EXPECT_EQ(a[0].label, "fdip32");
    EXPECT_EQ(a[1].label, "udp8k");
    EXPECT_EQ(a[2].profile.name, "drupal");
}

TEST(SweepSpec, ParsesHandWrittenJsonWithWhitespace)
{
    // Spec files are hand-written: whitespace and newlines around
    // colons and values must parse identically to the compact form.
    std::string pretty = R"({
        "name": "tiny",
        "warmup_instrs": 5000,
        "measure_instrs": 10000,
        "workloads": ["mediawiki", "drupal"],
        "configs": [
            {"label": "fdip32", "preset": "fdip"},
            {"label": "udp8k",  "preset": "udp8k"}
        ]
    })";
    SweepSpec s;
    std::string err;
    ASSERT_TRUE(sweepSpecFromJson(pretty, &s, &err)) << err;
    EXPECT_EQ(s.name, "tiny");
    EXPECT_EQ(s.warmupInstrs, 5000u);
    EXPECT_EQ(s.measureInstrs, 10000u);
    std::vector<SweepJob> a;
    std::vector<SweepJob> b;
    ASSERT_TRUE(expandSweepSpec(s, &a, &err)) << err;
    ASSERT_TRUE(expandSweepSpec(tinySpec(), &b, &err)) << err;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sweepJobHash(a[i], i), sweepJobHash(b[i], i));
    }
}

TEST(SweepSpec, RejectsUnknownNamesAndMisappliedFtq)
{
    std::string err;
    std::vector<SweepJob> jobs;
    SweepSpec s = tinySpec();
    s.workloads = {"no_such_workload"};
    EXPECT_FALSE(expandSweepSpec(s, &jobs, &err));
    EXPECT_NE(err.find("no_such_workload"), std::string::npos);

    s = tinySpec();
    s.configs = {{"x", "no_such_preset", 0}};
    EXPECT_FALSE(expandSweepSpec(s, &jobs, &err));

    // An FTQ depth override only makes sense for the fdip preset.
    s = tinySpec();
    s.configs = {{"x", "udp8k", 16}};
    EXPECT_FALSE(expandSweepSpec(s, &jobs, &err));

    SweepSpec bad;
    EXPECT_FALSE(sweepSpecFromJson("not json at all", &bad, &err));
}

TEST(SweepSpec, WorkloadsAllExpandsEveryDatacenterProfile)
{
    SweepSpec s = tinySpec();
    s.workloads = {"all"};
    std::vector<SweepJob> jobs;
    std::string err;
    ASSERT_TRUE(expandSweepSpec(s, &jobs, &err)) << err;
    EXPECT_EQ(jobs.size(), datacenterProfiles().size() * s.configs.size());
}

// --- coordinator + worker integration --------------------------------------

TEST(Sweepd, TcpDistributedRunIsByteIdenticalToSerial)
{
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<std::string> reference = serialReference(jobs);

    CoordinatorOptions co;
    co.policy = fastPolicy();
    co.endpoint = "tcp:127.0.0.1:0";
    co.specJson = sweepSpecToJson(tinySpec());
    co.pollSec = 0.02;
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    ASSERT_TRUE(coord.start(&err)) << err;
    ASSERT_GT(coord.port(), 0);

    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&, w] {
            std::string werr;
            auto q = openWorkQueue(coord.endpoint(), 5.0, &werr);
            ASSERT_NE(q, nullptr) << werr;
            WorkerOptions wo;
            wo.name = "t" + std::to_string(w);
            wo.quiet = true;
            runSweepWorker(*q, jobs, wo);
        });
    }
    std::vector<JobResult> results = coord.run();
    for (auto& t : workers) {
        t.join();
    }
    expectByteIdentical(jobs, results, reference);
}

TEST(Sweepd, CoordinatorRestartResumesFromManifest)
{
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<std::string> reference = serialReference(jobs);
    std::string dir = freshDir("resume");
    std::string manifestPath = dir + "/manifest.jsonl";

    // "First run": two jobs completed before the coordinator died. The
    // manifest is all that survives.
    {
        SweepManifest m;
        ASSERT_TRUE(m.open(manifestPath, false));
        for (std::size_t i = 0; i < 2; ++i) {
            ManifestEntry e;
            e.hash = sweepJobHash(jobs[i], i);
            e.index = i;
            e.workload = jobs[i].profile.name;
            e.label = jobs[i].label;
            e.ok = true;
            e.reportJson = reference[i];
            m.record(e);
        }
        m.close();
    }

    // Restarted coordinator: resumes the two completed jobs and only
    // issues the remaining two to its worker.
    CoordinatorOptions co;
    co.policy = fastPolicy();
    co.endpoint = "tcp:127.0.0.1:0";
    co.specJson = sweepSpecToJson(tinySpec());
    co.manifestPath = manifestPath;
    co.resume = true;
    co.pollSec = 0.02;
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    ASSERT_TRUE(coord.start(&err)) << err;

    WorkerSummary summary;
    std::thread worker([&] {
        std::string werr;
        auto q = openWorkQueue(coord.endpoint(), 5.0, &werr);
        ASSERT_NE(q, nullptr) << werr;
        WorkerOptions wo;
        wo.name = "t1";
        wo.quiet = true;
        summary = runSweepWorker(*q, jobs, wo);
    });
    std::vector<JobResult> results = coord.run();
    worker.join();

    EXPECT_EQ(summary.executed, 2u) << "resumed jobs must not re-run";
    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_TRUE(results[0].resumed);
    EXPECT_TRUE(results[1].resumed);
    EXPECT_FALSE(results[2].resumed);
    expectByteIdentical(jobs, results, reference);
}

/**
 * The acceptance scenario: a sweep distributed across two worker
 * processes, one SIGKILLed while the coordinator's board shows it
 * holding a lease. The lost lease is recovered (straggler re-dispatch or
 * expiry reclaim), the sweep completes every job, and the merged Reports
 * are byte-identical to the serial in-process run.
 */
TEST(Sweepd, SigkilledWorkerIsReclaimedAndRunStaysByteIdentical)
{
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<std::string> reference = serialReference(jobs);

    CoordinatorOptions co;
    co.policy = fastPolicy(); // 1 s lease TTL
    co.endpoint = "tcp:127.0.0.1:0";
    co.specJson = sweepSpecToJson(tinySpec());
    co.pollSec = 0.02;
    co.quiet = true;
    SweepCoordinator coord(jobs, co);
    std::string err;
    ASSERT_TRUE(coord.start(&err)) << err;

    // Both workers fork before any thread starts. The victim stalls 10 s
    // before every job, so it dies holding an unfinished lease; the
    // survivor runs normally.
    pid_t victim = chaos::forkWorker(coord.endpoint(), jobs, "victim", 10'000);
    ASSERT_GT(victim, 0);
    pid_t survivor = chaos::forkWorker(coord.endpoint(), jobs, "survivor", 100);
    ASSERT_GT(survivor, 0);

    chaos::KillOnLease killer(coord.endpoint(), "victim", victim);
    std::vector<JobResult> results = coord.run();
    killer.stop();
    EXPECT_TRUE(killer.killedWhileLeased())
        << "the victim must be killed while the board shows its lease";
    if (!killer.killedWhileLeased()) {
        ::kill(victim, SIGKILL);
    }

    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    EXPECT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    expectByteIdentical(jobs, results, reference);
}

/**
 * The recovery path from a dead coordinator: a worker that finishes its
 * job after the coordinator went away flushes the result to its shard
 * file, and a restarted coordinator absorbs it instead of re-running it.
 */
TEST(Sweepd, ShardFlushedAfterCoordinatorDeathIsAbsorbedOnRestart)
{
    std::vector<SweepJob> jobs = tinyJobs();
    std::vector<std::string> reference = serialReference(jobs);
    std::string dir = freshDir("shard");

    CoordinatorOptions co;
    co.policy = fastPolicy();
    co.endpoint = "tcp:127.0.0.1:0";
    co.specJson = sweepSpecToJson(tinySpec());
    co.manifestPath = dir + "/manifest.jsonl";
    co.shardDir = dir + "/shards";
    co.pollSec = 0.02;
    co.quiet = true;
    std::string err;

    // First coordinator: stopped while its only worker holds a lease.
    WorkerSummary first;
    {
        SweepCoordinator coord(jobs, co);
        ASSERT_TRUE(coord.start(&err)) << err;
        std::string endpoint = coord.endpoint();
        std::thread worker([&] {
            std::string werr;
            auto q = openWorkQueue(endpoint, 5.0, &werr);
            ASSERT_NE(q, nullptr) << werr;
            WorkerOptions wo;
            wo.name = "w1";
            wo.quiet = true;
            wo.shardDir = co.shardDir;
            wo.jobDelayMs = 1000; // still running when the coordinator dies
            wo.maxJobs = 1;
            first = runSweepWorker(*q, jobs, wo);
        });
        bool leased = false;
        std::thread stopper([&] {
            leased = chaos::waitForLease(endpoint, "w1", 30.0);
            coord.requestStop();
        });
        std::vector<JobResult> results = coord.run(); // closes the server
        stopper.join();
        worker.join();
        ASSERT_TRUE(leased) << "the worker never held a lease";
        for (const JobResult& r : results) {
            EXPECT_TRUE(r.skipped) << "nothing completed before the stop";
        }
    }
    EXPECT_EQ(first.executed, 1u);
    EXPECT_TRUE(first.queueLost);
    EXPECT_EQ(first.flushedLocal, 1u)
        << "the result must be flushed to the shard file";

    // Restarted coordinator: same manifest and shard directory.
    co.resume = true;
    SweepCoordinator coord(jobs, co);
    ASSERT_TRUE(coord.start(&err)) << err;
    WorkerSummary second;
    std::thread worker([&] {
        std::string werr;
        auto q = openWorkQueue(coord.endpoint(), 5.0, &werr);
        ASSERT_NE(q, nullptr) << werr;
        WorkerOptions wo;
        wo.name = "w2";
        wo.quiet = true;
        second = runSweepWorker(*q, jobs, wo);
    });
    std::vector<JobResult> results = coord.run();
    worker.join();

    EXPECT_EQ(second.executed, jobs.size() - 1)
        << "the absorbed job must not re-run";
    expectByteIdentical(jobs, results, reference);
}

// --- TCP work queue: endpoints and wire frames -----------------------------

TEST(QueueEndpoint, PortMustBeAFullDecimalInRange)
{
    struct Case
    {
        const char* endpoint;
        bool coordinatorOk; ///< parse with port 0 allowed
        bool workerOk;      ///< parse with port 0 refused
        const char* host;
        int port;
    };
    const Case cases[] = {
        {"tcp:127.0.0.1:7777", true, true, "127.0.0.1", 7777},
        {"tcp:7777", true, true, "127.0.0.1", 7777},
        {"tcp:0.0.0.0:65535", true, true, "0.0.0.0", 65535},
        {"tcp:127.0.0.1:0", true, false, "127.0.0.1", 0},
        {"tcp:127.0.0.1:70000", false, false, "", 0},
        {"tcp:127.0.0.1:65536", false, false, "", 0},
        {"tcp:127.0.0.1:99999999999999999999", false, false, "", 0},
        {"tcp:127.0.0.1:abc", false, false, "", 0},
        {"tcp:127.0.0.1:7777junk", false, false, "", 0},
        {"tcp:127.0.0.1:", false, false, "", 0},
        {"tcp:127.0.0.1:-1", false, false, "", 0},
        {"tcp:127.0.0.1:+80", false, false, "", 0},
        {"tcp:127.0.0.1: 80", false, false, "", 0},
        {"/shared/q", false, false, "", 0},
        {"", false, false, "", 0},
    };
    for (const Case& c : cases) {
        for (bool allowZero : {true, false}) {
            bool want = allowZero ? c.coordinatorOk : c.workerOk;
            QueueEndpoint ep;
            std::string err;
            EXPECT_EQ(parseQueueEndpoint(c.endpoint, allowZero, &ep, &err),
                      want)
                << c.endpoint << " allowZero=" << allowZero;
            if (want) {
                EXPECT_EQ(ep.host, c.host) << c.endpoint;
                EXPECT_EQ(ep.port, c.port) << c.endpoint;
            } else {
                EXPECT_NE(err.find("tcp:HOST:PORT"), std::string::npos)
                    << c.endpoint << ": " << err;
            }
        }
        // Both sides refuse what their parser refuses, before any
        // socket is opened.
        std::string err;
        if (!c.coordinatorOk) {
            CoordinatorOptions co;
            co.endpoint = c.endpoint;
            co.quiet = true;
            SweepCoordinator coord(tinyJobs(), co);
            EXPECT_FALSE(coord.start(&err)) << c.endpoint;
            EXPECT_NE(err.find("tcp:HOST:PORT"), std::string::npos) << err;
        }
        if (!c.workerOk) {
            EXPECT_EQ(openWorkQueue(c.endpoint, 1.0, &err), nullptr)
                << c.endpoint;
            EXPECT_NE(err.find("tcp:HOST:PORT"), std::string::npos) << err;
        }
    }
}

/** A request's fields, decoded independently of the server by the
 *  grammar documented in sim/workqueue.h. */
struct DecodedRequest
{
    bool ok = false;
    std::uint8_t op = 0;
    std::string str; ///< HELLO/CLAIM worker
    std::uint64_t token = 0;
    std::string entryLine; ///< PUSH entry, re-serialized
};

DecodedRequest
decodeRequest(const std::string& req)
{
    DecodedRequest d;
    std::size_t pos = 0;
    std::uint32_t magic = 0;
    if (!wire::readU32(req, &pos, &magic) || magic != wire::kQueueMagic ||
        pos >= req.size()) {
        return d;
    }
    d.op = static_cast<std::uint8_t>(req[pos++]);
    bool ok = false;
    std::string json;
    ManifestEntry entry;
    switch (d.op) {
    case wire::OpHello:
    case wire::OpClaim:
        ok = wire::readStr(req, &pos, &d.str);
        break;
    case wire::OpRenew:
        ok = wire::readU64(req, &pos, &d.token);
        break;
    case wire::OpPush:
        ok = wire::readU64(req, &pos, &d.token) &&
             wire::readStr(req, &pos, &json) &&
             manifestEntryFromJsonLine(json, &entry);
        d.entryLine = ok ? manifestEntryToJsonLine(entry) : "";
        break;
    case wire::OpStatus:
        ok = true;
        break;
    default:
        break;
    }
    d.ok = ok && pos == req.size();
    return d;
}

/** Blocking loopback client with a 5 s receive timeout; -1 on failure. */
int
connectLoopback(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    struct timeval tv = {5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
recvExact(int fd, std::size_t n, std::string* out)
{
    out->clear();
    char buf[4096];
    while (out->size() < n) {
        ssize_t r = ::recv(fd, buf, std::min(sizeof(buf), n - out->size()),
                           0);
        if (r <= 0) {
            return false;
        }
        out->append(buf, static_cast<std::size_t>(r));
    }
    return true;
}

/** Sends @p payload as one frame and reads one response frame; false
 *  when the server hangs up. */
bool
exchange(int fd, const std::string& payload, std::string* resp)
{
    std::string frame;
    wire::appendU32(&frame, static_cast<std::uint32_t>(payload.size()));
    frame += payload;
    if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
        return false;
    }
    std::string hdr;
    std::size_t pos = 0;
    std::uint32_t n = 0;
    return recvExact(fd, 4, &hdr) && wire::readU32(hdr, &pos, &n) &&
           recvExact(fd, n, resp);
}

/**
 * Seeded fuzz of the coordinator's request decoder over loopback: for
 * every opcode, each truncation of a well-formed frame, frames padded
 * with trailing bytes, and random bit flips. A frame the reference
 * decoder rejects must be answered StUnknown without reaching a handler;
 * one it accepts must reach exactly one handler with exactly the decoded
 * fields. An oversized length prefix drops the connection, and a
 * well-formed client is still served afterwards.
 */
TEST(TcpQueueServer, MalformedFramesNeverReachAHandler)
{
    struct Call
    {
        std::uint8_t op;
        std::string str;
        std::uint64_t token;
        std::string entryLine;
    };
    std::mutex mtx;
    std::vector<Call> calls;
    auto record = [&](Call c) {
        std::lock_guard<std::mutex> lock(mtx);
        calls.push_back(std::move(c));
    };
    TcpQueueServer::Handlers h;
    h.spec = [&] {
        record({wire::OpHello, "", 0, ""});
        return std::string("spec");
    };
    h.total = [] { return std::size_t{4}; };
    h.retrySec = [] { return 0.02; };
    h.status = [&] {
        record({wire::OpStatus, "", 0, ""});
        return std::string("{}");
    };
    h.claim = [&](const std::string& worker, JobLease* out) {
        record({wire::OpClaim, worker, 0, ""});
        out->hash = 0xabc;
        out->index = 1;
        out->token = 99;
        return ClaimOutcome::Granted;
    };
    h.renew = [&](std::uint64_t token) {
        record({wire::OpRenew, "", token, ""});
        return true;
    };
    h.push = [&](std::uint64_t token, const ManifestEntry& e) {
        record({wire::OpPush, "", token, manifestEntryToJsonLine(e)});
        return LeaseTable::Push::RecordedFinal;
    };
    TcpQueueServer server;
    std::string err;
    ASSERT_TRUE(server.listen("127.0.0.1", 0, std::move(h), &err)) << err;
    std::atomic<bool> stop{false};
    std::thread pump([&] {
        while (!stop.load()) {
            server.poll(0.01);
        }
    });
    struct Joiner
    {
        std::atomic<bool>& stop;
        std::thread& pump;
        ~Joiner()
        {
            stop.store(true);
            pump.join();
        }
    } joiner{stop, pump}; // joins on every exit path, ASSERTs included

    auto request = [](std::uint8_t op) {
        std::string r;
        wire::appendU32(&r, wire::kQueueMagic);
        r.push_back(static_cast<char>(op));
        return r;
    };
    ManifestEntry entry;
    entry.hash = 0x1234;
    entry.index = 2;
    entry.workload = "mediawiki";
    entry.label = "fdip32";
    entry.worker = "fuzzer";
    entry.ok = true;
    entry.reportJson = "{}";
    std::vector<std::string> valid;
    valid.push_back(request(wire::OpHello));
    wire::appendStr(&valid.back(), "fuzzer");
    valid.push_back(request(wire::OpClaim));
    wire::appendStr(&valid.back(), "fuzzer");
    valid.push_back(request(wire::OpRenew));
    wire::appendU64(&valid.back(), 42);
    valid.push_back(request(wire::OpPush));
    wire::appendU64(&valid.back(), 7);
    wire::appendStr(&valid.back(), manifestEntryToJsonLine(entry));
    valid.push_back(request(wire::OpStatus));

    std::mt19937_64 rng(20240618);
    std::vector<std::string> frames;
    for (const std::string& v : valid) {
        for (std::size_t n = 0; n <= v.size(); ++n) {
            frames.push_back(v.substr(0, n));
        }
        for (std::size_t extra = 1; extra <= 3; ++extra) {
            frames.push_back(v + std::string(extra, '\x5a'));
        }
        for (int k = 0; k < 100; ++k) {
            std::string f = v;
            int flips = 1 + static_cast<int>(rng() % 3);
            for (int b = 0; b < flips; ++b) {
                std::size_t bit = rng() % (f.size() * 8);
                f[bit / 8] = static_cast<char>(f[bit / 8] ^ (1 << (bit % 8)));
            }
            frames.push_back(std::move(f));
        }
    }
    // The defect this guards against: CLAIM with no worker string.
    std::string bareClaim = request(wire::OpClaim);
    ASSERT_EQ(bareClaim.size(), 5u);
    EXPECT_FALSE(decodeRequest(bareClaim).ok);

    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::size_t accepted = 0;
    for (const std::string& f : frames) {
        DecodedRequest want = decodeRequest(f);
        std::size_t before;
        {
            std::lock_guard<std::mutex> lock(mtx);
            before = calls.size();
        }
        std::string resp;
        ASSERT_TRUE(exchange(fd, f, &resp))
            << "server dropped a well-framed request";
        std::size_t pos = 0;
        std::uint32_t magic = 0;
        ASSERT_TRUE(wire::readU32(resp, &pos, &magic));
        ASSERT_EQ(magic, wire::kQueueMagic);
        ASSERT_LT(pos, resp.size());
        std::uint8_t st = static_cast<std::uint8_t>(resp[pos]);
        std::lock_guard<std::mutex> lock(mtx);
        if (!want.ok) {
            EXPECT_EQ(st, wire::StUnknown) << "frame of " << f.size() << " B";
            EXPECT_EQ(calls.size(), before)
                << "a malformed frame reached a handler";
            continue;
        }
        ++accepted;
        EXPECT_EQ(st, wire::StGranted);
        ASSERT_EQ(calls.size(), before + 1);
        const Call& c = calls.back();
        EXPECT_EQ(c.op, want.op);
        if (want.op == wire::OpClaim) {
            EXPECT_EQ(c.str, want.str);
        }
        if (want.op == wire::OpRenew || want.op == wire::OpPush) {
            EXPECT_EQ(c.token, want.token);
        }
        EXPECT_EQ(c.entryLine, want.entryLine);
    }
    // Each valid frame (and any flip that stays well-formed) got through.
    EXPECT_GE(accepted, valid.size());

    // An absurd length prefix is a protocol error: the server hangs up
    // (EOF or reset, not the receive timeout).
    std::string hdr;
    wire::appendU32(&hdr, wire::kMaxFrameBytes + 1);
    ASSERT_EQ(::send(fd, hdr.data(), hdr.size(), MSG_NOSIGNAL), 4);
    char byte = 0;
    ssize_t got = ::recv(fd, &byte, 1, 0);
    EXPECT_TRUE(got == 0 || (got < 0 && errno == ECONNRESET))
        << "recv returned " << got << ", errno " << errno;
    ::close(fd);

    // A well-formed client is still served.
    std::string endpoint = "tcp:127.0.0.1:" + std::to_string(server.port());
    auto q = openWorkQueue(endpoint, 5.0, &err);
    ASSERT_NE(q, nullptr) << err;
    EXPECT_EQ(q->specJson(), "spec");
    EXPECT_EQ(q->totalJobs(), 4u);
    JobLease lease;
    ASSERT_EQ(q->claim("after-fuzz", &lease), ClaimOutcome::Granted);
    EXPECT_EQ(lease.token, 99u);
    EXPECT_EQ(lease.index, 1u);
    {
        std::lock_guard<std::mutex> lock(mtx);
        EXPECT_EQ(calls.back().str, "after-fuzz");
    }
}

/**
 * Forks a child that sleeps 3 s: one that execs `sleep`, or one that
 * stays in this image and drops its inherited listeners as udp_sweepd's
 * local workers do. Returns once the child has done so (a close-on-exec
 * pipe reads EOF at exec, or when the forked child closes it).
 */
pid_t
spawnSleeper(bool exec)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        return -1;
    }
    pid_t pid = ::fork();
    if (pid == 0) {
        if (exec) {
            ::execlp("sleep", "sleep", "3", static_cast<char*>(nullptr));
            ::_exit(127);
        }
        closeInheritedListeners();
        ::close(fds[1]);
        ::sleep(3);
        ::_exit(0);
    }
    ::close(fds[1]);
    char byte = 0;
    while (::read(fds[0], &byte, 1) > 0) {
    }
    ::close(fds[0]);
    return pid;
}

TEST(TcpQueueServer, ForkedChildrenHoldNoListenerAfterClose)
{
    // A child holding a copy of the coordinator's listener keeps its port
    // accepting after close(): a new client then connects and waits out
    // its RPC timeout (5 s here) instead of failing at once.
    TcpQueueServer server;
    std::string err;
    ASSERT_TRUE(server.listen("127.0.0.1", 0, {}, &err)) << err;
    std::string endpoint = "tcp:127.0.0.1:" + std::to_string(server.port());
    pid_t children[2] = {spawnSleeper(true), spawnSleeper(false)};
    ASSERT_GT(children[0], 0);
    ASSERT_GT(children[1], 0);
    server.close();

    auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<WorkQueue> q = openWorkQueue(endpoint, 5.0, &err);
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    EXPECT_EQ(q, nullptr);
    EXPECT_LT(sec, 1.0) << err;
    for (pid_t pid : children) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
}

} // namespace
} // namespace udp
