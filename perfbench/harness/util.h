/**
 * @file
 * Small helpers shared by the benchmark harness: Report digests and the
 * pinned-digest files, host clocks and resource usage, and the host
 * fingerprint every result row carries.
 */

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** 64-bit FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 14695981039346656037ULL);

/** 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/** Monotonic host seconds (steady_clock). */
double nowSec();

/** User + system CPU seconds of this process, all threads. */
double processCpuSec();

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Machine and build identity recorded on every result row. */
struct HostInfo
{
    std::string cpuModel;
    unsigned nproc = 0;
    std::string compiler;
    std::string buildType;
};

HostInfo hostInfo();

/** One pinned point: "<workload> <config label>" and its digest. */
struct PinnedDigest
{
    std::string key;
    std::uint64_t digest = 0;
};

/**
 * Reads a pinned-digest file: '#' comment lines, then one
 * "<app> <label> <16 hex digits>" line per point in job order.
 * Returns false with @p err set when the file is missing or malformed.
 */
bool loadPins(const std::string& path, std::vector<PinnedDigest>* out,
              std::string* err);

/** Writes @p pins in the loadPins() format under a @p header comment. */
bool writePins(const std::string& path, const std::string& header,
               const std::vector<PinnedDigest>& pins);

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
