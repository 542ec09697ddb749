/**
 * @file
 * Unit tests for the out-of-order backend: dispatch admission, dataflow
 * scheduling, functional-unit limits, branch resolution, recovery/squash
 * and in-order retirement — driven directly through the Backend API with
 * a hand-crafted program.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "backend/backend.h"
#include "core/udp_engine.h"

namespace udp {
namespace {

/**
 * Program used by backend tests:
 *   0..7   alu
 *   8      cond branch (Loop trip 1000 -> effectively always taken) -> 0
 *   9..15  alu (sequential tail)
 */
Program
backendProgram()
{
    std::vector<Instr> ins(16);
    ins[8].type = InstrType::Branch;
    ins[8].branch = BranchKind::CondDirect;
    ins[8].target = 0;
    ins[8].behavior = 0;
    ins[4].type = InstrType::Load;
    ins[4].behavior = 0;
    BranchBehavior loop;
    loop.cls = BranchClass::Loop;
    loop.trip = 1000;
    MemPattern mp;
    mp.base = Program::kDataBase;
    mp.size = 4096;
    mp.stride = 64;
    Program p = Program::assemble("be", std::move(ins), 0, {loop}, {}, {},
                                  {mp});
    EXPECT_EQ(p.validate(), "");
    return p;
}

struct BackendHarness
{
    Program prog = backendProgram();
    TrueStream stream{prog};
    MemSystem mem{MemSysConfig{}};
    Bpu bpu{BpuConfig{}};
    BranchRecordMap records;
    BackendConfig cfg;
    std::unique_ptr<Backend> be;

    explicit BackendHarness(const BackendConfig& c = BackendConfig())
        : cfg(c)
    {
        be = std::make_unique<Backend>(prog, stream, mem, bpu, records,
                                       cfg);
    }

    /** Builds the DecodedInstr for true-stream position @p i. */
    DecodedInstr
    decoded(std::uint64_t i, Cycle ready = 0)
    {
        const ArchInstr& a = stream.at(i);
        const Instr& sin = prog.instrAt(a.idx);
        DecodedInstr di;
        di.dynId = i + 1;
        di.idx = a.idx;
        di.pc = a.pc;
        di.type = sin.type;
        di.kind = sin.branch;
        di.execLat = sin.execLat;
        di.dep1 = sin.dep1;
        di.dep2 = sin.dep2;
        di.behavior = sin.behavior;
        di.onPath = true;
        di.streamIdx = i;
        di.readyAt = ready;
        if (sin.branch == BranchKind::CondDirect) {
            di.predictedBranch = true;
            BranchRecord rec;
            rec.kind = sin.branch;
            rec.ckpt = bpu.checkpoint();
            rec.cond = bpu.predictCond(di.pc);
            di.predTaken = rec.cond.taken;
            di.predTarget = prog.pcOf(sin.target);
            records.emplace(di.dynId, std::move(rec));
        }
        return di;
    }

    /**
     * An independent single-cycle ALU op (instruction 0) with a unique
     * dynId. It does not read the true stream, whose retired positions
     * are gone, so it can be built at any time.
     */
    DecodedInstr
    alu(std::uint64_t dynId)
    {
        DecodedInstr di;
        di.dynId = dynId;
        di.idx = 0;
        di.pc = prog.pcOf(0);
        di.type = InstrType::Alu;
        di.execLat = 1;
        di.onPath = true;
        return di;
    }

    /** Ticks @p now, then asserts the full backend invariants hold. */
    void
    tickChecked(Cycle now)
    {
        be->tick(now);
        EXPECT_EQ(be->checkInvariants(/*full=*/true), "") << "cycle " << now;
    }
};

TEST(Backend, DispatchAdmissionLimits)
{
    BackendHarness h;
    // Fill the ROB to its limit with simple ALU ops.
    std::uint64_t i = 0;
    unsigned dispatched = 0;
    Cycle now = 1;
    while (true) {
        DecodedInstr di = h.decoded(i);
        if (di.kind != BranchKind::None) {
            ++i;
            continue; // keep it branch-free: no retirement progress needed
        }
        if (!h.be->canDispatch(di)) {
            break;
        }
        h.be->dispatch(di, now);
        ++dispatched;
        ++i;
        if (dispatched > 500) {
            break;
        }
    }
    // The unified RS (125) binds before the ROB (352) without issue.
    EXPECT_EQ(dispatched, h.cfg.rsSize);
}

TEST(Backend, RetiresInOrderAndCounts)
{
    BackendHarness h;
    Cycle now = 1;
    for (std::uint64_t i = 0; i < 6; ++i) {
        h.be->dispatch(h.decoded(i), now);
    }
    std::uint64_t before = h.be->retired();
    for (now = 2; now < 600 && h.be->retired() < before + 6; ++now) {
        h.be->tick(now);
    }
    EXPECT_EQ(h.be->retired(), before + 6);
    EXPECT_EQ(h.be->robOccupancy(), 0u);
}

TEST(Backend, RetireHookSeesEveryPc)
{
    BackendHarness h;
    UdpEngine udp{UdpConfig{}};
    h.be->setUdp(&udp);
    FtqEntry candidate;
    candidate.assumedOffPath = true;
    Cycle now = 1;
    for (std::uint64_t i = 0; i < 4; ++i) {
        // Arm the Seniority-FTQ with the line of the next pc to retire
        // (read before retirement discards this stream position): the
        // retirement must match and consume it.
        udp.evaluate(candidate, h.stream.at(i).pc);
        ASSERT_EQ(udp.seniorityOccupancy(), 1u);
        h.be->dispatch(h.decoded(i), now);
        for (std::uint64_t want = i + 1; h.be->retired() < want && now < 600;
             ++now) {
            h.be->tick(now);
        }
        EXPECT_EQ(udp.stats().retireMatches, i + 1);
        EXPECT_EQ(udp.seniorityOccupancy(), 0u);
    }
}

TEST(Backend, IssueWidthBoundsThroughput)
{
    BackendHarness h;
    Cycle now = 1;
    unsigned count = 0;
    for (std::uint64_t i = 0; count < 60; ++i) {
        DecodedInstr di = h.decoded(i);
        if (di.kind != BranchKind::None || di.type != InstrType::Alu) {
            continue;
        }
        di.dep1 = 0;
        di.dep2 = 0;
        if (h.be->canDispatch(di)) {
            h.be->dispatch(di, now);
            ++count;
        }
    }
    h.be->tick(now);
    // Only numAlu can issue per cycle even though 60 are ready.
    EXPECT_EQ(h.be->stats().issued, h.cfg.numAlu);
}

TEST(Backend, DependenceDelaysIssue)
{
    BackendHarness h;
    Cycle now = 1;
    // Producer: a load (long latency). Consumer: depends on it.
    DecodedInstr ld = h.decoded(4); // the load at index 4
    ASSERT_EQ(ld.type, InstrType::Load);
    ld.dep1 = 0;
    ld.dep2 = 0;
    h.be->dispatch(ld, now);
    DecodedInstr use = h.decoded(5);
    use.dep1 = 1; // depends on the load
    use.dep2 = 0;
    h.be->dispatch(use, now);

    h.be->tick(now); // load issues; consumer must wait
    EXPECT_EQ(h.be->stats().issued, 1u);
    // Run until both retire; the consumer needed the load's completion.
    for (now = 2; now < 500 && h.be->retired() < 2; ++now) {
        h.be->tick(now);
    }
    EXPECT_EQ(h.be->retired(), 2u);
}

TEST(Backend, CorrectPredictionNoResteer)
{
    BackendHarness h;
    Cycle now = 1;
    // Warm the direction so TAGE predicts taken (loop trip 1000).
    for (std::uint64_t i = 0; i < 9; ++i) {
        h.be->dispatch(h.decoded(i), now);
    }
    bool resteer_seen = false;
    for (now = 2; now < 600; ++now) {
        ResteerRequest r = h.be->tick(now);
        resteer_seen |= r.valid && !h.records.empty();
        if (h.be->robOccupancy() == 0) {
            break;
        }
    }
    // The branch may mispredict cold exactly once; after training the
    // predictor the stream's branch is always taken. Just assert the
    // backend resolved it and retired everything.
    EXPECT_GT(h.be->stats().branchesResolved, 0u);
    EXPECT_EQ(h.be->robOccupancy(), 0u);
    (void)resteer_seen;
}

TEST(Backend, MispredictSquashesYounger)
{
    BackendHarness h;
    Cycle now = 1;
    // Dispatch the on-path branch but force a wrong prediction.
    for (std::uint64_t i = 0; i < 8; ++i) {
        h.be->dispatch(h.decoded(i), now);
    }
    DecodedInstr br = h.decoded(8);
    br.predTaken = false; // truth: taken (trip-1000 loop)
    br.predTarget = kInvalidAddr;
    h.be->dispatch(br, now);
    // "Wrong path" youngsters that must be squashed.
    for (std::uint64_t fake = 100; fake < 110; ++fake) {
        DecodedInstr wp = h.decoded(9); // any instruction
        wp.dynId = fake + 1000;
        wp.onPath = false;
        if (h.be->canDispatch(wp)) {
            h.be->dispatch(wp, now);
        }
    }
    std::size_t occupancy_before = h.be->robOccupancy();
    ResteerRequest req;
    for (now = 2; now < 100 && !req.valid; ++now) {
        req = h.be->tick(now);
    }
    ASSERT_TRUE(req.valid);
    EXPECT_TRUE(req.aligned);          // on-path branch recovery
    EXPECT_EQ(req.nextStreamIdx, 9u);  // resumes after the branch
    EXPECT_EQ(req.newPc, h.stream.at(8).nextPc);
    EXPECT_GT(h.be->stats().squashed, 0u);
    EXPECT_LT(h.be->robOccupancy(), occupancy_before);
}

TEST(Backend, LoadStoreQueueLimits)
{
    BackendHarness h;
    Cycle now = 1;
    unsigned loads = 0;
    // Dispatch loads only until refused.
    while (true) {
        DecodedInstr ld = h.decoded(4);
        ld.dynId = 10'000 + loads;
        ld.dep1 = 0;
        ld.dep2 = 0;
        if (!h.be->canDispatch(ld)) {
            break;
        }
        h.be->dispatch(ld, now);
        if (++loads > 200) {
            break;
        }
    }
    EXPECT_EQ(loads, h.cfg.lqSize);
}

TEST(Backend, SquashedConsumerEdgeIgnoredAtReusedPosition)
{
    BackendHarness h;
    Cycle now = 1;
    // pos 0: load P. pos 1: ALU A waiting on P. pos 2: branch B, forced
    // to mispredict. pos 3: wrong-path consumer C waiting on P.
    DecodedInstr p = h.decoded(4);
    ASSERT_EQ(p.type, InstrType::Load);
    p.dep1 = 0;
    p.dep2 = 0;
    h.be->dispatch(p, now);
    DecodedInstr a = h.decoded(5);
    a.type = InstrType::Alu;
    a.execLat = 1;
    a.dep1 = 1;
    a.dep2 = 0;
    h.be->dispatch(a, now);
    DecodedInstr b = h.decoded(8);
    b.predTaken = false; // truth: taken
    b.predTarget = kInvalidAddr;
    b.dep1 = 0;
    b.dep2 = 0;
    h.be->dispatch(b, now);
    DecodedInstr c = h.alu(5000);
    c.onPath = false;
    c.dep1 = 3;
    h.be->dispatch(c, now);

    h.tickChecked(now); // P and B issue; A and C wait on P
    ASSERT_EQ(h.be->stats().issued, 2u);
    ResteerRequest req;
    for (now = 2; now < 100 && !req.valid; ++now) {
        req = h.be->tick(now);
        ASSERT_EQ(h.be->checkInvariants(true), "");
    }
    ASSERT_TRUE(req.valid);
    ASSERT_EQ(h.be->robOccupancy(), 3u); // C squashed, P still in flight
    ASSERT_EQ(h.be->stats().issued, 2u);

    // N takes C's position 3 and waits on A. P's completion walks C's
    // stale edge to position 3; it must not wake N, which may issue only
    // after A (issued when P completes) has completed.
    DecodedInstr n = h.decoded(9);
    n.dep1 = 2;
    n.dep2 = 0;
    h.be->dispatch(n, now);
    EXPECT_EQ(h.be->rsOccupancy(), 2u);
    Cycle aIssued = 0;
    Cycle nIssued = 0;
    for (; now < 1000 && nIssued == 0; ++now) {
        h.tickChecked(now);
        if (aIssued == 0 && h.be->stats().issued >= 3) {
            aIssued = now;
        }
        if (h.be->stats().issued >= 4) {
            nIssued = now;
        }
    }
    ASSERT_GT(aIssued, 0u);
    EXPECT_GT(nIssued, aIssued);
}

TEST(Backend, ReusedPositionNotBlockedByStaleEdge)
{
    BackendHarness h;
    Cycle now = 1;
    // pos 0: load P. pos 1: branch B, forced to mispredict. pos 2:
    // wrong-path consumer C waiting on P. pos 3..8: independent
    // wrong-path loads; with two load ports some are still ready, not
    // issued, when B's recovery squashes them.
    DecodedInstr p = h.decoded(4);
    p.dep1 = 0;
    p.dep2 = 0;
    h.be->dispatch(p, now);
    DecodedInstr b = h.decoded(8);
    b.predTaken = false;
    b.predTarget = kInvalidAddr;
    b.dep1 = 0;
    b.dep2 = 0;
    h.be->dispatch(b, now);
    DecodedInstr c = h.alu(5000);
    c.onPath = false;
    c.dep1 = 2;
    h.be->dispatch(c, now);
    for (unsigned k = 0; k < 6; ++k) {
        DecodedInstr ld = h.decoded(4);
        ld.dynId = 5100 + k;
        ld.onPath = false;
        ld.dep1 = 0;
        ld.dep2 = 0;
        h.be->dispatch(ld, now);
    }

    ResteerRequest req;
    for (; now < 100 && !req.valid; ++now) {
        req = h.be->tick(now);
        ASSERT_EQ(h.be->checkInvariants(true), "") << "cycle " << now;
    }
    ASSERT_TRUE(req.valid);
    ASSERT_EQ(h.be->robOccupancy(), 2u);
    ASSERT_EQ(h.be->rsOccupancy(), 0u);

    // An independent instruction at C's old position issues on the next
    // cycle, while P (and C's stale edge on it) is still in flight.
    h.be->dispatch(h.alu(6000), now);
    EXPECT_EQ(h.be->checkInvariants(true), "");
    std::uint64_t before = h.be->stats().issued;
    h.tickChecked(now);
    EXPECT_EQ(h.be->stats().issued, before + 1);
    EXPECT_EQ(h.be->retired(), 0u); // P has not completed yet
    for (++now; now < 1000 && h.be->robOccupancy() > 0; ++now) {
        h.tickChecked(now);
    }
    EXPECT_EQ(h.be->robOccupancy(), 0u);
}

TEST(Backend, ExhaustedPortDoesNotBlockYoungerReadyOp)
{
    BackendHarness h;
    Cycle now = 1;
    // Three ready loads, then a ready ALU op: the third load finds both
    // load ports taken, the younger ALU op still issues this cycle.
    for (unsigned k = 0; k < 3; ++k) {
        DecodedInstr ld = h.decoded(4);
        ld.dynId = 100 + k;
        ld.dep1 = 0;
        ld.dep2 = 0;
        h.be->dispatch(ld, now);
    }
    h.be->dispatch(h.alu(200), now);
    EXPECT_EQ(h.be->rsOccupancy(), 4u);
    h.tickChecked(now);
    EXPECT_EQ(h.be->stats().issued, h.cfg.numLoad + 1);
    EXPECT_EQ(h.be->rsOccupancy(), 1u);
    h.tickChecked(++now); // the blocked load takes a port now
    EXPECT_EQ(h.be->stats().issued, h.cfg.numLoad + 2);
    EXPECT_EQ(h.be->rsOccupancy(), 0u);
}

/** Cycle at which a consumer of a load with operands @p d1, @p d2 issues. */
Cycle
consumerIssueCycle(std::uint8_t d1, std::uint8_t d2)
{
    BackendHarness h;
    Cycle now = 1;
    DecodedInstr ld = h.decoded(4);
    ld.dep1 = 0;
    ld.dep2 = 0;
    h.be->dispatch(ld, now);
    DecodedInstr use = h.alu(300);
    use.dep1 = d1;
    use.dep2 = d2;
    h.be->dispatch(use, now);
    EXPECT_EQ(h.be->checkInvariants(true), "");
    for (; now < 1000; ++now) {
        h.tickChecked(now);
        if (h.be->stats().issued == 2) {
            return now;
        }
    }
    return 0;
}

TEST(Backend, SameProducerOnBothOperandsWakesOnce)
{
    // One wake edge, one outstanding producer: the consumer issues in the
    // same cycle as with a single operand from that producer (the full
    // invariant check recounts its waiting count every cycle).
    Cycle single = consumerIssueCycle(1, 0);
    Cycle both = consumerIssueCycle(1, 1);
    ASSERT_GT(single, 1u);
    EXPECT_EQ(both, single);
}

TEST(Backend, OldestReadyIssueFirstAcrossRingWrap)
{
    // Eight independent single-cycle ops against a 6-wide issue: the six
    // oldest issue first, so all six retire one cycle later. The head is
    // skewed so the ops straddle word and ring boundaries of the ready
    // set (ROB 352 -> 512 slots; ROB 64 -> one 64-slot word).
    for (unsigned robSize : {352u, 64u}) {
        for (unsigned skew : {0u, 61u, 62u, 63u, 127u, 509u}) {
            BackendConfig cfg;
            cfg.robSize = robSize;
            cfg.rsSize = std::min(cfg.rsSize, robSize);
            cfg.numAlu = 8; // the issue width binds, not the ALU ports
            BackendHarness h(cfg);
            Cycle now = 1;
            std::uint64_t dyn = 1000;
            for (unsigned left = skew; left > 0;) {
                unsigned batch = std::min(left, 6u);
                for (unsigned k = 0; k < batch; ++k) {
                    h.be->dispatch(h.alu(dyn++), now);
                }
                left -= batch;
                while (h.be->robOccupancy() > 0) {
                    h.be->tick(++now);
                }
            }
            for (unsigned k = 0; k < 8; ++k) {
                h.be->dispatch(h.alu(dyn++), now);
            }
            std::uint64_t before = h.be->retired();
            h.tickChecked(++now); // six oldest issue
            EXPECT_EQ(h.be->rsOccupancy(), 2u);
            h.tickChecked(++now); // they complete and retire
            EXPECT_EQ(h.be->retired(), before + 6)
                << "rob " << robSize << " skew " << skew;
            h.tickChecked(++now);
            EXPECT_EQ(h.be->retired(), before + 8);
        }
    }
}

} // namespace
} // namespace udp
