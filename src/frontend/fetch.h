/**
 * @file
 * Fetch + decode stages: consume FTQ blocks, perform demand icache
 * accesses (merging with in-flight FDIP prefetches in the fill buffer),
 * and deliver decoded instructions to the backend. Implements Ishii-style
 * post-fetch correction: a branch decoded without having been predicted
 * (BTB miss) immediately fills the BTB, flushes the FTQ and resteers.
 */

#ifndef UDP_FRONTEND_FETCH_H
#define UDP_FRONTEND_FETCH_H

#include <cstdint>
#include <deque>
#include <string>

#include "bpred/bpu.h"
#include "cache/memsys.h"
#include "common/types.h"
#include "frontend/decoupled_fe.h"
#include "frontend/ftq.h"
#include "frontend/records.h"
#include "workload/program.h"

namespace udp {

class Eip;

/** A decoded dynamic instruction ready for dispatch. */
struct DecodedInstr
{
    std::uint64_t dynId = 0;
    InstIdx idx = 0;
    Addr pc = kInvalidAddr;
    InstrType type = InstrType::Alu;
    BranchKind kind = BranchKind::None;
    std::uint8_t execLat = 1;
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    std::uint32_t behavior = kNoBehavior;
    bool onPath = false;
    std::uint64_t streamIdx = 0;
    bool predictedBranch = false;
    bool predTaken = false;
    Addr predTarget = kInvalidAddr;
    /** Cycle at which decode/rename completes (dispatchable). */
    Cycle readyAt = 0;
};

/** Fetch configuration. */
struct FetchConfig
{
    unsigned fetchWidth = 6;      ///< instructions delivered per cycle
    Cycle decodePipeLat = 4;      ///< fetch-to-dispatch pipeline depth
    unsigned decodeQueueMax = 48; ///< backpressure bound
};

/** Fetch statistics. */
struct FetchStats
{
    std::uint64_t instrsDelivered = 0;
    std::uint64_t icacheStallCycles = 0;
    /** Delivery slots lost while stalled on an icache miss (Fig. 15). */
    std::uint64_t lostSlotsIcacheMiss = 0;
    std::uint64_t ftqEmptyCycles = 0;
    std::uint64_t decodeBtbCorrections = 0;
    std::uint64_t decodeResteers = 0;
};

/** The fetch + decode pipeline front. */
class FetchStage
{
  public:
    FetchStage(const Program& prog, Bpu& bpu, MemSystem& mem, Ftq& ftq,
               DecoupledFrontend& fe, BranchRecordMap& records,
               const FetchConfig& cfg);

    /** One cycle of fetch + decode delivery. */
    void tick(Cycle now);

    /** Decode output queue (backend dispatch pulls from here). */
    std::deque<DecodedInstr>& decodeQueue() { return decodeQ; }

    /** Squashes everything in fetch/decode (execute-stage resteer): the
     *  FTQ and the decode queue, with their branch records. */
    void flushAll();

    /** Attaches EIP (nullptr = none): it trains on every demand icache
     *  access, wrong path included. */
    void setEip(Eip* eip) { eip_ = eip; }

    const FetchStats& stats() const { return stats_; }
    void clearStats() { stats_ = FetchStats(); }

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

    /** Invariant check (sim/invariants.h): decode-queue bound and head
     *  progress consistency. Returns the first violation, or "". */
    std::string checkInvariants() const;

    /** Decode-queue / head-block summary for diagnostic reports. */
    std::string dumpState(Cycle now) const;

  private:
    /**
     * Squashes the FTQ: releases the branch records of its blocks,
     * flushes it and drops the head block's fetch progress.
     */
    void squashFtq();

    /**
     * Post-fetch correction for one delivered instruction. Returns true
     * when a decode resteer happened (stop delivering younger).
     */
    bool postFetchCorrect(DecodedInstr& di, Cycle now);

    const Program& program;
    Bpu& bpu;
    MemSystem& mem;
    Ftq& ftq;
    DecoupledFrontend& frontend;
    BranchRecordMap& records;
    FetchConfig cfg;

    std::deque<DecodedInstr> decodeQ;

    /** Per-head-block progress. */
    bool headAccessed = false;
    Cycle headReady = 0;
    unsigned headConsumed = 0;

    FetchStats stats_;
    Eip* eip_ = nullptr;
    Telemetry* telem_ = nullptr;
};

} // namespace udp

#endif // UDP_FRONTEND_FETCH_H
