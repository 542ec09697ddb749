/**
 * @file
 * The decoupled frontend: walks the static code image under branch
 * prediction, producing fetch blocks into the FTQ ahead of the fetch
 * engine (FDIP's prefetch source). Tracks ground-truth path alignment
 * against the architectural stream for statistics and recovery.
 */

#ifndef UDP_FRONTEND_DECOUPLED_FE_H
#define UDP_FRONTEND_DECOUPLED_FE_H

#include <cstdint>

#include "bpred/bpu.h"
#include "common/types.h"
#include "frontend/ftq.h"
#include "frontend/records.h"
#include "workload/program.h"
#include "workload/true_stream.h"

namespace udp {

class UdpEngine;

/** Frontend configuration. */
struct FrontendConfig
{
    /** Fetch blocks generated per cycle (Table II: 2). */
    unsigned blocksPerCycle = 2;
    /** Redirect bubble after an execute-stage resteer. */
    Cycle execResteerPenalty = 3;
    /** Redirect bubble after a decode-stage (post-fetch) resteer. */
    Cycle decodeResteerPenalty = 4;
};

/** Frontend statistics. */
struct FrontendStats
{
    std::uint64_t blocksBuilt = 0;
    std::uint64_t instrsEmitted = 0;
    std::uint64_t onPathInstrs = 0;
    std::uint64_t offPathInstrs = 0;
    std::uint64_t resteers = 0;
    std::uint64_t decodeResteers = 0;
    std::uint64_t stallCyclesFtqFull = 0;
    std::uint64_t stallCyclesRedirect = 0;
};

/** The block-building decoupled frontend. */
class DecoupledFrontend
{
  public:
    DecoupledFrontend(const Program& prog, TrueStream& stream, Bpu& bpu,
                      Ftq& ftq, BranchRecordMap& records,
                      const FrontendConfig& cfg);

    /** Builds up to blocksPerCycle fetch blocks. */
    void tick(Cycle now);

    /**
     * Redirects the frontend (execute- or decode-stage resteer).
     * @param resume_at first cycle block building resumes
     * @param new_pc next fetch address
     * @param aligned the redirect lands on the architectural path
     * @param next_stream_idx TrueStream position of new_pc when aligned
     * @param from_decode a decode-detected taken BTB miss: also raises
     *        UDP's BTB-miss signal
     */
    void resteer(Cycle resume_at, Addr new_pc, bool aligned,
                 std::uint64_t next_stream_idx, bool from_decode);

    /**
     * Predicts the branch of @p kind at @p branch_pc and records the
     * prediction state (checkpoint, direction, indirect target) in @p rec.
     * Shared by block building (BTB hit) and post-fetch correction
     * (decode).
     * @param btb_target taken target of a direct branch, and the
     *        last-known target hint of an indirect one (kInvalidAddr if
     *        none)
     * @return the predicted next pc, or kInvalidAddr for not-taken
     */
    Addr predictBranch(Addr branch_pc, BranchKind kind, Addr btb_target,
                       BranchRecord& rec);

    Addr specPc() const { return pc; }
    bool isAligned() const { return aligned; }
    std::uint64_t streamIndex() const { return streamIdx; }
    std::uint64_t nextDynId() const { return dynIdCounter; }

    /** Attaches UDP (nullptr = none): it sees every conditional
     *  prediction and decode resteer, and tags new blocks. */
    void setUdp(UdpEngine* udp) { udp_ = udp; }

    const FrontendStats& stats() const { return stats_; }
    void clearStats() { stats_ = FrontendStats(); }

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

  private:
    /** Builds one fetch block into the (non-full) FTQ. */
    void buildBlock();

    /** Clamps a speculative pc into the code image (wrap-around). */
    Addr clampPc(Addr a) const;

    const Program& program;
    TrueStream& stream;
    Bpu& bpu;
    Ftq& ftq;
    BranchRecordMap& records;
    FrontendConfig cfg;
    UdpEngine* udp_ = nullptr;

    Addr pc;
    bool aligned = true;
    std::uint64_t streamIdx = 0;
    Cycle stallUntil = 0;
    std::uint64_t dynIdCounter = 1;
    FrontendStats stats_;
    Telemetry* telem_ = nullptr;
};

} // namespace udp

#endif // UDP_FRONTEND_DECOUPLED_FE_H
