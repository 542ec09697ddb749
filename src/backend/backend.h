/**
 * @file
 * The out-of-order backend: ROB / unified RS / LSQ with completion-driven
 * wakeup (a completing producer wakes its waiting consumers into an
 * age-ordered ready set that issue walks), functional-unit constraints,
 * branch resolution (including wrong-path branches, which can re-resteer
 * the wrong path — Scarab's "multiple consequent mispredictions"),
 * recovery, and in-order retirement that trains the predictors and feeds
 * UDP's Seniority-FTQ.
 */

#ifndef UDP_BACKEND_BACKEND_H
#define UDP_BACKEND_BACKEND_H

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "bpred/bpu.h"
#include "cache/memsys.h"
#include "common/types.h"
#include "frontend/fetch.h"
#include "frontend/records.h"
#include "workload/program.h"
#include "workload/true_stream.h"

namespace udp {

class UdpEngine;

/** Backend configuration (Table II). */
struct BackendConfig
{
    unsigned robSize = 352;
    unsigned rsSize = 125;
    unsigned lqSize = 64;
    unsigned sqSize = 64;
    unsigned dispatchWidth = 6;
    unsigned issueWidth = 6;
    unsigned retireWidth = 6;
    unsigned numAlu = 4;
    unsigned numLoad = 2;
    unsigned numStore = 2;
    /** Issue-to-resolution latency of a branch. */
    Cycle branchExecLat = 2;
};

/** A resteer demand raised by branch resolution. */
struct ResteerRequest
{
    bool valid = false;
    Addr newPc = kInvalidAddr;
    bool aligned = false;
    std::uint64_t nextStreamIdx = 0;
    /** dynId of the resolving branch (squash-younger boundary). */
    std::uint64_t squashAfterDynId = 0;
    /** The resolving branch was on the architectural path. */
    bool fromOnPath = false;
};

/** Backend statistics. */
struct BackendStats
{
    std::uint64_t retired = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashed = 0;
    std::uint64_t branchesResolved = 0;
    std::uint64_t mispredictsResolved = 0;
    std::uint64_t wrongPathResteers = 0;
    std::uint64_t robFullStalls = 0;
};

/** The backend pipeline. */
class Backend
{
  public:
    Backend(const Program& prog, TrueStream& stream, MemSystem& mem,
            Bpu& bpu, BranchRecordMap& records, const BackendConfig& cfg);

    /** Room for one more instruction of this type? */
    bool canDispatch(const DecodedInstr& di) const;

    /** Accepts an instruction from the decode queue. */
    void dispatch(const DecodedInstr& di, Cycle now);

    /**
     * One backend cycle: completion/resolution, recovery selection,
     * retirement, then issue. Returns a resteer request when the oldest
     * mispredicted branch resolved this cycle.
     */
    ResteerRequest tick(Cycle now);

    std::uint64_t retired() const { return stats_.retired; }
    std::size_t robOccupancy() const { return robCount; }
    /** Dispatched, not yet issued instructions (unified RS occupancy). */
    unsigned rsOccupancy() const { return rsCount; }

    /** Attaches UDP (nullptr = none): it sees the pc of every retired
     *  instruction (retire-time useful-set learning). */
    void setUdp(UdpEngine* udp) { udp_ = udp; }

    const BackendStats& stats() const { return stats_; }
    void clearStats() { stats_ = BackendStats(); }

    /**
     * Fault-injection hook (sim/faultinject.h): while frozen, retirement
     * makes no progress (the rest of the pipeline keeps running until it
     * backs up behind the full ROB).
     */
    void setRetireFrozen(bool frozen) { retireFrozen = frozen; }
    bool retireFrozenForFault() const { return retireFrozen; }

    /**
     * Invariant check (sim/invariants.h): ROB/RS/LSQ occupancy bounds.
     * @p full additionally recomputes the load/store in-flight credits
     * and the RS occupancy from ROB contents (conservation across
     * dispatch/issue/squash/retire), recounts every entry's outstanding
     * producers, checks that the ready set holds exactly the unissued
     * entries with none, and that no wake edge leaked.
     * Returns the first violation, or "".
     */
    std::string checkInvariants(bool full) const;

    /** ROB/RS occupancy + oldest-entry summary for diagnostic reports. */
    std::string dumpState(Cycle now) const;

  private:
    static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

    struct RobEntry
    {
        DecodedInstr di;
        std::uint64_t pos = 0; ///< dense dispatch position
        /**
         * Dispatch sequence number. Unlike pos it is never reused after a
         * squash, so a wake edge can tell its consumer from a younger
         * instruction later dispatched at the same position.
         */
        std::uint64_t seq = 0;
        std::uint32_t wakeHead = kNoEdge; ///< edges to waiting consumers
        std::uint8_t waiting = 0; ///< producers not yet completed
        bool issued = false;
        bool completed = false;
        bool resolved = false;
        bool resteerHandled = false;
        bool mispredicted = false;
        bool actualTaken = false;
        Addr actualNext = kInvalidAddr;
        Cycle completeAt = kInvalidCycle;
        Cycle dispatchedAt = 0; ///< for age reporting in dumps
    };

    /** "Consumer waits on this producer"; pooled, chained per producer. */
    struct WakeEdge
    {
        std::uint64_t consumerPos = 0;
        std::uint64_t consumerSeq = 0;
        std::uint32_t next = kNoEdge;
    };

    RobEntry& slotOf(std::uint64_t pos) { return rob[pos & robMask]; }
    const RobEntry& slotOf(std::uint64_t pos) const
    {
        return rob[pos & robMask];
    }
    /** The live entry at @p pos, or nullptr (retired/squashed/future). */
    RobEntry* entryAt(std::uint64_t pos);

    void markReady(std::uint64_t pos)
    {
        readyBits[(pos & robMask) >> 6] |= std::uint64_t{1} << (pos & 63);
    }
    void clearReady(std::uint64_t pos)
    {
        readyBits[(pos & robMask) >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }
    bool isReady(std::uint64_t pos) const
    {
        return (readyBits[(pos & robMask) >> 6] >> (pos & 63)) & 1;
    }

    /** Makes @p consumer wait for @p producer's completion. */
    void addWakeEdge(RobEntry& producer, const RobEntry& consumer);
    /** Returns the edge chain starting at @p head to the free list. */
    void freeWakeEdges(std::uint32_t head);
    /** Producer completed: wake its consumers, free its edges. */
    void wakeConsumers(RobEntry& producer);

    /** Resolves the branch in @p e (fills actual outcome/mispredict). */
    void resolveBranch(RobEntry& e);

    /** Squashes all entries younger than @p pos. */
    void squashAfter(std::uint64_t pos);

    void completeReady(Cycle now);
    ResteerRequest handleRecovery(Cycle now);
    void retire(Cycle now);
    void issue(Cycle now);
    /** Issues @p e, which is ready and has a free functional unit. */
    void issueEntry(RobEntry& e, Cycle now);

    const Program& program;
    TrueStream& stream;
    MemSystem& mem;
    Bpu& bpu;
    BranchRecordMap& records;
    UdpEngine* udp_ = nullptr;
    BackendConfig cfg;

    /**
     * The ROB: a ring of 2^k >= robSize slots (at least 64), the entry at
     * position pos living in slot pos & robMask. Live positions are
     * [robBasePos, robBasePos + robCount).
     */
    std::vector<RobEntry> rob;
    std::uint64_t robMask = 0;
    std::uint64_t robBasePos = 0; ///< pos of the oldest entry
    std::size_t robCount = 0;
    std::uint64_t dispatchSeq = 0;
    unsigned rsCount = 0; ///< dispatched, unissued entries

    /**
     * The ready set: one bit per ROB slot, set while the slot holds a
     * live, unissued entry with waiting == 0. Walking the bits from the
     * head slot around the ring visits ready entries oldest first.
     */
    std::vector<std::uint64_t> readyBits;

    /** Wake-edge pool and the head of its free list. */
    std::vector<WakeEdge> edges;
    std::uint32_t freeEdge = kNoEdge;

    /** (completeAt, pos) min-heap of scheduled completions. */
    using Completion = std::pair<Cycle, std::uint64_t>;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions;

    /** Positions of resolved-mispredicted branches awaiting recovery. */
    std::vector<std::uint64_t> pendingRecovery;

    unsigned loadsInFlight = 0;
    unsigned storesInFlight = 0;
    bool retireFrozen = false; ///< fault-injection: stall retirement

    BackendStats stats_;
};

} // namespace udp

#endif // UDP_BACKEND_BACKEND_H
