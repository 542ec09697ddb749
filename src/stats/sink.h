/**
 * @file
 * Structured result sinks: serialize Reports as JSON lines and CSV so
 * benches emit machine-readable artifacts next to their printed tables.
 *
 * The serialized schema is stable: "workload" and "config" (strings)
 * followed by every Report::toStatSet() key in declaration order. The
 * authoritative key table, with each key's paper-figure provenance, is in
 * docs/EXPERIMENT_GUIDE.md.
 */

#ifndef UDP_STATS_SINK_H
#define UDP_STATS_SINK_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "stats/json.h"
#include "stats/telemetry.h"

namespace udp {

struct Report;

/**
 * Machine-readable record of one failed sweep job (docs/ROBUSTNESS.md has
 * the schema table). Written next to the successful Reports so a partially
 * failing sweep still yields a complete, parseable artifact set.
 */
struct FailureRow
{
    std::string workload;
    std::string config;    ///< the job label
    std::string errorKind; ///< simErrorKindName(), a process-isolation kind
                           ///< ("crash", "timeout", ...) or "exception"
    std::string component; ///< failing component, "" for plain exceptions
    std::string message;   ///< exception what()
    std::string dumpPath;  ///< diagnostic dump file, "" when none written
    std::uint64_t cycle = 0;
    std::uint64_t attempts = 1;

    // Process-isolation diagnostics (--isolate sweeps, sim/procexec.h);
    // empty/zero for in-process failures.
    std::string signal;     ///< terminating signal name ("SIGSEGV"), or ""
    std::string stderrTail; ///< captured tail of the child's stderr
    std::uint64_t maxRssKb = 0; ///< child peak RSS (ru_maxrss)
    double userSec = 0.0;       ///< child user CPU seconds
    double sysSec = 0.0;        ///< child system CPU seconds
};

/** Shortest round-trip decimal rendering of @p v ("400000", "0.85");
 *  integers serialize plain, never in exponent notation. */
std::string formatNumber(double v);

/** Ordered list of failure-row schema keys. */
std::vector<std::string> failureSchemaKeys();

/** One JSON object (single line) for @p f. Distinguishable from report
 *  lines in the same stream by the presence of the "error_kind" key. */
std::string failureToJsonLine(const FailureRow& f);

/** The CSV header row (no trailing newline) matching failureToCsvRow. */
std::string failureCsvHeader();

/** One CSV data row (no trailing newline) for @p f. */
std::string failureToCsvRow(const FailureRow& f);

/** Ordered list of schema keys: "workload", "config", then every numeric
 *  StatSet key of Report. */
std::vector<std::string> reportSchemaKeys();

/** One JSON object (single line, no trailing newline) for @p r. */
std::string reportToJsonLine(const Report& r);

/** The CSV header row (no trailing newline) matching reportToCsvRow. */
std::string reportCsvHeader();

/** One CSV data row (no trailing newline) for @p r. */
std::string reportToCsvRow(const Report& r);

/**
 * Parses one reportToJsonLine() line back into @p out. The round trip is
 * exact: numbers use shortest round-trip rendering, so re-serializing the
 * parsed Report reproduces the input byte for byte. Used by the
 * checkpoint manifest (sim/manifest.h) and the isolated-execution pipe
 * protocol (sim/procexec.h). Returns false (leaving @p out unspecified)
 * on malformed JSON (stats/json.h), unknown keys, a failure row (key
 * "error_kind"), or a counter that is not a whole number in uint64 range.
 */
bool reportFromJsonLine(const std::string& line, Report* out);

// ----- telemetry rows (docs/TELEMETRY.md has the schema tables) ---------

/** Ordered interval-row schema keys: "workload", "config", then every
 *  numeric IntervalRow field. */
std::vector<std::string> intervalSchemaKeys();

/** One JSON object (single line) for an interval row. Distinguishable in
 *  a mixed stream by "row_type":"interval". */
std::string intervalToJsonLine(const std::string& workload,
                               const std::string& config,
                               const IntervalRow& row);

/** The CSV header row (no trailing newline) matching intervalToCsvRow. */
std::string intervalCsvHeader();

/** One CSV data row (no trailing newline) for an interval row. */
std::string intervalToCsvRow(const std::string& workload,
                             const std::string& config,
                             const IntervalRow& row);

/** One JSON object (single line) for a run's end-of-window telemetry
 *  summary ("row_type":"telemetry_summary" + TelemetrySnapshot::toStatSet
 *  entries). Consumed by tools/trace_summary.py. */
std::string telemetrySummaryToJsonLine(const std::string& workload,
                                       const std::string& config,
                                       const TelemetrySnapshot& snap);

/**
 * One JSON object (single line) for a run's cycle-loop self-profile
 * ("row_type":"profile_summary" + cycles/total_sec and per-phase
 * phase_<name>_sec / phase_<name>_pct keys, docs/OBSERVABILITY.md).
 * Consumed by tools/trace_summary.py and BENCH_simspeed rows.
 */
std::string profileSummaryToJsonLine(const std::string& workload,
                                     const std::string& config,
                                     const obs::ProfileSnapshot& prof);

/**
 * Writes telemetry interval rows (JSONL and/or CSV) and per-run summary
 * rows (JSONL only). Same crash-safe line-atomic discipline as
 * ReportSink. Opening no sink makes the writers no-ops.
 */
class TelemetrySink
{
  public:
    TelemetrySink() = default;

    /** Opens (truncates) @p path for interval + summary JSON lines. */
    bool openJson(const std::string& path);

    /** Opens (truncates) @p path for interval CSV (header included). */
    bool openCsv(const std::string& path);

    /** Appends every interval row of @p snap, then its summary row. */
    void writeRun(const std::string& workload, const std::string& config,
                  const TelemetrySnapshot& snap);

    /** True when at least one sink is open. */
    bool active() const { return json.is_open() || csv.is_open(); }

    /** Flushes and closes all sinks (also done on destruction). */
    void close();

  private:
    std::ofstream json;
    std::ofstream csv;
};

/**
 * Writes Reports to an optional JSON-lines file and/or an optional CSV
 * file (with header). Opening no sink makes write() a no-op, so benches
 * can call it unconditionally.
 *
 * Crash-safe: every row is written as one complete line in a single
 * buffered write and flushed immediately, so a sweep killed mid-run
 * (SIGKILL, OOM, power loss) leaves artifacts whose complete lines all
 * parse — at worst the final line is truncated and must be dropped by
 * the reader (docs/ROBUSTNESS.md, "Crash-safe artifacts").
 */
class ReportSink
{
  public:
    ReportSink() = default;

    /** Opens (truncates) @p path for JSON lines; returns success. */
    bool openJson(const std::string& path);

    /** Opens (truncates) @p path for CSV and writes the header row;
     *  returns success. */
    bool openCsv(const std::string& path);

    /** Appends @p r to every open sink. */
    void write(const Report& r);

    /** Appends each report in order to every open sink. */
    void writeAll(const std::vector<Report>& reports);

    /**
     * Appends @p f to the failure outputs: the JSON-lines file shared
     * with reports (when open), and a sibling "<csv>.failures.csv" file
     * opened lazily on the first failure (when the CSV sink is open —
     * failures have different columns than reports).
     */
    void writeFailure(const FailureRow& f);

    /** True when at least one sink is open. */
    bool active() const { return json.is_open() || csv.is_open(); }

    /** Failure rows written so far (benches use this for exit codes). */
    std::size_t failureCount() const { return failures; }

    /** Flushes and closes all sinks (also done on destruction). */
    void close();

  private:
    std::ofstream json;
    std::ofstream csv;
    std::ofstream failureCsv;
    std::string csvPath;
    std::size_t failures = 0;
};

} // namespace udp

#endif // UDP_STATS_SINK_H
