/**
 * @file
 * Stream replays: drive single layers' public APIs (Walker, Tage,
 * SetAssocCache, BloomFilter, UsefulSet) with the workload's own
 * true-path instruction stream and report host ns per operation.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstdint>

#include "passes.h"

namespace perfbench {

struct ReplayResult
{
    double walkNs = 0.0;        ///< per Walker::step
    double tageNs = 0.0;        ///< per conditional branch
    double l1iAccessNs = 0.0;   ///< per fetched-line access
    double bloomNs = 0.0;       ///< per line (contains + insert on miss)
    double usefulLookupNs = 0.0;
    double usefulLearnNs = 0.0;
    std::uint64_t udpOps = 0;   ///< 0 when no configuration runs UDP
    /** Folded results, so no replayed call can be optimized away. */
    std::uint64_t checksum = 0;
};

/** Replays warm-up + measured instructions of every workload Program. */
ReplayResult replayStreams(const Workload& w, const ProgramSet& programs,
                           Tracer& tr, unsigned pass);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
