/**
 * @file
 * The Fetch Target Queue: fetch blocks produced by the decoupled frontend,
 * consumed by the fetch stage and scanned by FDIP. Capacity is dynamic
 * (bounded by the physical size) — the knob UFTQ turns.
 */

#ifndef UDP_FRONTEND_FTQ_H
#define UDP_FRONTEND_FTQ_H

#include <array>
#include <cstdint>
#include <deque>
#include <string>

#include "common/types.h"
#include "workload/isa.h"

namespace udp {

class Telemetry;

/** One instruction slot inside a fetch block. */
struct FtqInstr
{
    InstIdx idx = 0;
    Addr pc = kInvalidAddr;
    /** Unique dynamic id assigned by the frontend (key for records). */
    std::uint64_t dynId = 0;
    /** Ground truth: lies on the architectural path. */
    bool onPath = false;
    /** Absolute TrueStream position (valid only when onPath). */
    std::uint64_t streamIdx = 0;
    /** The frontend recognised this as a branch (BTB hit). */
    bool predictedBranch = false;
    bool predTaken = false;
    Addr predTarget = kInvalidAddr;
};

/** One fetch block (32 B aligned region, terminated early by taken CTI). */
struct FtqEntry
{
    std::uint64_t id = 0; ///< monotonically increasing entry id
    Addr startPc = kInvalidAddr;
    std::uint8_t numInstrs = 0;
    std::array<FtqInstr, kInstrsPerFetchBlock> instrs;
    /** Ground truth: the first instruction lies on the architectural path. */
    bool onPath = false;
    /** FDIP already probed/prefetched this block. */
    bool prefetchProbed = false;
    /** UDP's confidence counter tagged this block as assumed-off-path. */
    bool assumedOffPath = false;
    /** FDIP evaluated this block as an off-path prefetch candidate. */
    bool udpOffPathCandidate = false;

    /** Cache line containing this block (blocks never straddle lines). */
    Addr line() const { return lineAddr(startPc); }
};

/** FTQ statistics. */
struct FtqStats
{
    std::uint64_t pushes = 0;
    std::uint64_t fullStalls = 0;
    std::uint64_t flushes = 0;
    /** Per-cycle occupancy samples and their sum. */
    std::uint64_t occupancySamples = 0;
    std::uint64_t occupancySum = 0;

    double
    avgOccupancy() const
    {
        return occupancySamples == 0
                   ? 0.0
                   : static_cast<double>(occupancySum) / occupancySamples;
    }
};

/** The fetch target queue. */
class Ftq
{
  public:
    /**
     * @param physical_capacity hardware limit on entries
     * @param capacity initial (dynamic) capacity, clamped to physical
     */
    Ftq(std::size_t physical_capacity, std::size_t capacity);

    bool full() const { return q.size() >= capacity_; }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return capacity_; }
    std::size_t physicalCapacity() const { return physCap; }

    /**
     * Adjusts the dynamic capacity (UFTQ). Clamped to [1, physical].
     * Existing entries are retained even if they exceed a shrunken bound
     * (they drain naturally).
     */
    void setCapacity(std::size_t c);

    /** Appends a block; the caller must check full() first. */
    void push(FtqEntry e);

    /** Oldest block (fetch side). */
    FtqEntry& front() { return q.front(); }
    const FtqEntry& front() const { return q.front(); }

    /** Pops the oldest block after the fetch stage consumed it. */
    FtqEntry popFront();

    /** Random access from oldest (0) to newest (size-1), for FDIP scan. */
    FtqEntry& at(std::size_t i) { return q[i]; }
    const FtqEntry& at(std::size_t i) const { return q[i]; }

    /** Drops all entries (resteer). */
    void flush();

    /** Records the occupancy sample for this cycle. */
    void
    sampleOccupancy()
    {
        stats_.occupancySum += q.size();
        ++stats_.occupancySamples;
    }

    void noteFullStall() { ++stats_.fullStalls; }

    FtqStats& stats() { return stats_; }
    const FtqStats& stats() const { return stats_; }
    void clearStats();

    /**
     * Invariant check (sim/invariants.h): size against the physical
     * bound, capacity against [1, physical] and per-entry well-formedness
     * (instruction count, valid addresses). @p full additionally verifies
     * entry-id monotonicity. Returns the first violation, or "".
     */
    std::string checkInvariants(bool full) const;

    /** Occupancy + head/tail summary for diagnostic reports. */
    std::string dumpState() const;

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

  private:
    Telemetry* telem_ = nullptr;
    std::deque<FtqEntry> q;
    std::size_t physCap;
    std::size_t capacity_;
    std::uint64_t nextId = 1;
    FtqStats stats_;

  public:
    /** Allocates the next entry id (used by the frontend). */
    std::uint64_t allocId() { return nextId++; }
};

} // namespace udp

#endif // UDP_FRONTEND_FTQ_H
