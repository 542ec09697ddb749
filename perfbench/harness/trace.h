/**
 * @file
 * The benchmark's spans: one per call into a layer's public API, recorded
 * from the benchmark's own code (never inside the simulator), kept in
 * memory and written once as Chrome-trace JSON when the run ends.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats/tracefile.h"
#include "util.h"

namespace perfbench {

struct Span
{
    std::string name;
    unsigned pass = 0;
    unsigned tid = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    double startSec = 0.0;
    double durSec = 0.0;
};

/** Thread-safe in-memory span store. A disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Reserves a span id so children can name it before it ends. */
    std::uint64_t newId();

    /** Records a finished span (no-op when disabled). */
    void record(Span s);

    /** Sum of durations of the spans named @p name in @p pass. */
    double total(const std::string& name, unsigned pass) const;

    /** Number of spans named @p name in @p pass. */
    std::size_t count(const std::string& name, unsigned pass) const;

    /**
     * Writes the spans (pid 0, one tid per thread) plus the profiler
     * tracks of @p profiles to @p path as one Chrome-trace JSON file.
     */
    bool writeChromeTrace(const std::string& path,
                          const std::vector<udp::TraceJob>& profiles) const;

  private:
    bool on;
    mutable std::mutex mtx;
    std::vector<Span> spans;
    std::uint64_t nextId = 1;
};

/** Small per-thread index for span tids (0 = first thread seen). */
unsigned threadIndex();

/**
 * Runs @p fn, records it as span @p name under @p parent in @p pass and
 * returns its host seconds. @p id may be a newId() reserved for children.
 */
template <class Fn>
double
timedSpan(Tracer& tr, const char* name, unsigned pass, std::uint64_t parent,
          Fn&& fn, std::uint64_t id = 0)
{
    double t0 = nowSec();
    fn();
    double dur = nowSec() - t0;
    if (tr.enabled()) {
        tr.record({name, pass, threadIndex(), id != 0 ? id : tr.newId(),
                   parent, t0, dur});
    }
    return dur;
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
