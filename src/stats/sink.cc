#include "stats/sink.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/runner.h"

namespace udp {

namespace {

/**
 * Crash-safe row append: the complete line (terminator included) goes to
 * the stream in one buffered write and is flushed before returning, so a
 * killed process can lose at most a partial *final* line — every earlier
 * line is intact and parseable (docs/ROBUSTNESS.md).
 */
void
writeLineAtomic(std::ofstream& out, std::string line)
{
    line += '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
}

} // namespace

std::string
formatNumber(double v)
{
    char buf[64];
    // Counters serialize as plain integers (not "4e+05"); everything else
    // uses the shortest representation that round-trips. The range test
    // comes first: casting NaN or a huge value to an integer is undefined.
    if (std::abs(v) < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v))) {
        std::to_chars_result res = std::to_chars(
            buf, buf + sizeof(buf), static_cast<long long>(v));
        return std::string(buf, res.ptr);
    }
    std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

namespace {

/** CSV field escaping per RFC 4180 (quote when needed). */
std::string
csvEscape(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
        return s;
    }
    std::string out = "\"";
    for (char c : s) {
        if (c == '"') {
            out += "\"\"";
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

} // namespace

std::vector<std::string>
reportSchemaKeys()
{
    std::vector<std::string> keys = {"workload", "config"};
    // Bind the StatSet before iterating: entries() references its
    // internals, and a temporary would die before the loop body.
    StatSet stats = Report{}.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        (void)value;
        keys.push_back(name);
    }
    return keys;
}

std::string
reportToJsonLine(const Report& r)
{
    std::string out = "{\"workload\":\"" + jsonEscape(r.workload) +
                      "\",\"config\":\"" + jsonEscape(r.configName) + "\"";
    StatSet stats = r.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        out += ",\"" + name + "\":" + formatNumber(value);
    }
    out += '}';
    return out;
}

std::string
reportCsvHeader()
{
    std::string out;
    for (const std::string& key : reportSchemaKeys()) {
        if (!out.empty()) {
            out += ',';
        }
        out += key;
    }
    return out;
}

std::string
reportToCsvRow(const Report& r)
{
    std::string out = csvEscape(r.workload) + ',' + csvEscape(r.configName);
    StatSet stats = r.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        (void)name;
        out += ',' + formatNumber(value);
    }
    return out;
}

namespace {

/** Assigns one parsed member to its Report field; the key tables mirror
 *  Report::toStatSet() (tested by Sink.ReportJsonLineRoundTripsExactly). */
bool
setReportField(Report* r, const std::string& key, const JsonValue& v)
{
    static const std::pair<const char*, std::uint64_t Report::*> kCounts[] = {
        {"instructions", &Report::instructions},
        {"cycles", &Report::cycles},
        {"prefetches_emitted", &Report::prefetchesEmitted},
        {"resteers", &Report::resteers},
        {"decode_corrections", &Report::decodeCorrections},
        {"udp_dropped", &Report::udpDropped},
        {"udp_filtered_emits", &Report::udpFilteredEmits},
        {"udp_learned", &Report::udpLearned},
    };
    static const std::pair<const char*, double Report::*> kReals[] = {
        {"ipc", &Report::ipc},
        {"icache_mpki", &Report::icacheMpki},
        {"mshr_hits_pki", &Report::mshrHitsPki},
        {"timeliness", &Report::timeliness},
        {"l1_hit_ratio", &Report::l1HitRatio},
        {"lost_instr_per_kilo", &Report::lostInstrPerKilo},
        {"onpath_ratio", &Report::onPathRatio},
        {"usefulness", &Report::usefulness},
        {"usefulness_hw", &Report::usefulnessHw},
        {"avg_ftq_occupancy", &Report::avgFtqOccupancy},
        {"branch_mpki", &Report::branchMpki},
        {"cond_mispredict_rate", &Report::condMispredictRate},
    };
    if (key == "workload") {
        return v.as(&r->workload);
    }
    if (key == "config") {
        return v.as(&r->configName);
    }
    for (const auto& [name, field] : kReals) {
        if (key == name) {
            return v.as(&(r->*field));
        }
    }
    for (const auto& [name, field] : kCounts) {
        // Counters are written through formatNumber(double), so they
        // read back as doubles that must be whole and in uint64 range.
        if (key == name) {
            double d = 0.0;
            if (!v.as(&d) || !(d >= 0.0 && d < 0x1p64) ||
                d != std::floor(d)) {
                return false;
            }
            r->*field = static_cast<std::uint64_t>(d);
            return true;
        }
    }
    return false; // unknown key, or a failure row ("error_kind")
}

} // namespace

bool
reportFromJsonLine(const std::string& line, Report* out)
{
    JsonValue root;
    if (!parseJson(line, &root) || !root.isObject()) {
        return false;
    }
    Report r;
    for (std::size_t i = 0; i < root.keys.size(); ++i) {
        if (!setReportField(&r, root.keys[i], root.items[i])) {
            return false;
        }
    }
    *out = std::move(r);
    return true;
}

std::vector<std::string>
failureSchemaKeys()
{
    return {"workload", "config",     "error_kind", "component",
            "cycle",    "attempts",   "message",    "dump_path",
            "signal",   "max_rss_kb", "user_sec",   "sys_sec",
            "stderr_tail"};
}

std::string
failureToJsonLine(const FailureRow& f)
{
    std::string out = "{\"workload\":\"" + jsonEscape(f.workload) +
                      "\",\"config\":\"" + jsonEscape(f.config) +
                      "\",\"error_kind\":\"" + jsonEscape(f.errorKind) +
                      "\",\"component\":\"" + jsonEscape(f.component) +
                      "\",\"cycle\":" + std::to_string(f.cycle) +
                      ",\"attempts\":" + std::to_string(f.attempts) +
                      ",\"message\":\"" + jsonEscape(f.message) +
                      "\",\"dump_path\":\"" + jsonEscape(f.dumpPath) +
                      "\",\"signal\":\"" + jsonEscape(f.signal) +
                      "\",\"max_rss_kb\":" + std::to_string(f.maxRssKb) +
                      ",\"user_sec\":" + formatNumber(f.userSec) +
                      ",\"sys_sec\":" + formatNumber(f.sysSec) +
                      ",\"stderr_tail\":\"" + jsonEscape(f.stderrTail) +
                      "\"}";
    return out;
}

std::string
failureCsvHeader()
{
    std::string out;
    for (const std::string& key : failureSchemaKeys()) {
        if (!out.empty()) {
            out += ',';
        }
        out += key;
    }
    return out;
}

std::string
failureToCsvRow(const FailureRow& f)
{
    // Flatten the stderr tail: quoted embedded newlines are legal CSV,
    // but one physical line per row is what makes the artifact
    // crash-safe for line-oriented readers (grep, wc, tail -f).
    std::string tail;
    tail.reserve(f.stderrTail.size());
    for (char c : f.stderrTail) {
        if (c == '\n') {
            tail += "\\n";
        } else if (c == '\r') {
            tail += "\\r";
        } else {
            tail += c;
        }
    }
    return csvEscape(f.workload) + ',' + csvEscape(f.config) + ',' +
           csvEscape(f.errorKind) + ',' + csvEscape(f.component) + ',' +
           std::to_string(f.cycle) + ',' + std::to_string(f.attempts) +
           ',' + csvEscape(f.message) + ',' + csvEscape(f.dumpPath) + ',' +
           csvEscape(f.signal) + ',' + std::to_string(f.maxRssKb) + ',' +
           formatNumber(f.userSec) + ',' + formatNumber(f.sysSec) + ',' +
           csvEscape(tail);
}

bool
ReportSink::openJson(const std::string& path)
{
    json.open(path, std::ios::out | std::ios::trunc);
    if (!json.is_open()) {
        std::fprintf(stderr, "[udp] cannot open JSON sink \"%s\"\n",
                     path.c_str());
        return false;
    }
    return true;
}

bool
ReportSink::openCsv(const std::string& path)
{
    csv.open(path, std::ios::out | std::ios::trunc);
    if (!csv.is_open()) {
        std::fprintf(stderr, "[udp] cannot open CSV sink \"%s\"\n",
                     path.c_str());
        return false;
    }
    csvPath = path;
    writeLineAtomic(csv, reportCsvHeader());
    return true;
}

void
ReportSink::write(const Report& r)
{
    if (json.is_open()) {
        writeLineAtomic(json, reportToJsonLine(r));
    }
    if (csv.is_open()) {
        writeLineAtomic(csv, reportToCsvRow(r));
    }
}

void
ReportSink::writeAll(const std::vector<Report>& reports)
{
    for (const Report& r : reports) {
        write(r);
    }
}

void
ReportSink::writeFailure(const FailureRow& f)
{
    ++failures;
    if (json.is_open()) {
        writeLineAtomic(json, failureToJsonLine(f));
    }
    if (csv.is_open() && !failureCsv.is_open()) {
        // Lazy sibling file: a clean sweep leaves no failure artifact,
        // so "<name>.failures.csv exists" alone signals trouble.
        std::string path = csvPath;
        const std::string ext = ".csv";
        if (path.size() >= ext.size() &&
            path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
            path.resize(path.size() - ext.size());
        }
        path += ".failures.csv";
        failureCsv.open(path, std::ios::out | std::ios::trunc);
        if (!failureCsv.is_open()) {
            std::fprintf(stderr, "[udp] cannot open failure CSV \"%s\"\n",
                         path.c_str());
        } else {
            writeLineAtomic(failureCsv, failureCsvHeader());
        }
    }
    if (failureCsv.is_open()) {
        writeLineAtomic(failureCsv, failureToCsvRow(f));
    }
}

void
ReportSink::close()
{
    if (json.is_open()) {
        json.close();
    }
    if (csv.is_open()) {
        csv.close();
    }
    if (failureCsv.is_open()) {
        failureCsv.close();
    }
}

// ----- telemetry rows ---------------------------------------------------

namespace {

/** Ordered (key, value) pairs of one interval row's numeric fields. */
std::vector<std::pair<std::string, double>>
intervalEntries(const IntervalRow& row)
{
    return {
        {"interval", static_cast<double>(row.index)},
        {"cycle_start", static_cast<double>(row.cycleStart)},
        {"cycle_end", static_cast<double>(row.cycleEnd)},
        {"instructions", static_cast<double>(row.instructions)},
        {"ipc", row.ipc},
        {"icache_mpki", row.icacheMpki},
        {"ftq_occupancy", row.ftqOccupancy},
        {"prefetches_issued", static_cast<double>(row.prefetchesIssued)},
        {"pf_accuracy", row.pfAccuracy},
        {"pf_timely", static_cast<double>(row.pfTimely)},
        {"pf_late", static_cast<double>(row.pfLate)},
        {"pf_unused", static_cast<double>(row.pfUnused)},
    };
}

} // namespace

std::vector<std::string>
intervalSchemaKeys()
{
    std::vector<std::string> keys = {"workload", "config"};
    for (const auto& [name, value] : intervalEntries(IntervalRow{})) {
        (void)value;
        keys.push_back(name);
    }
    return keys;
}

std::string
intervalToJsonLine(const std::string& workload, const std::string& config,
                   const IntervalRow& row)
{
    std::string out = "{\"row_type\":\"interval\",\"workload\":\"" +
                      jsonEscape(workload) + "\",\"config\":\"" +
                      jsonEscape(config) + "\"";
    for (const auto& [name, value] : intervalEntries(row)) {
        out += ",\"" + name + "\":" + formatNumber(value);
    }
    out += "}";
    return out;
}

std::string
intervalCsvHeader()
{
    std::string out;
    for (const std::string& key : intervalSchemaKeys()) {
        if (!out.empty()) {
            out += ',';
        }
        out += key;
    }
    return out;
}

std::string
intervalToCsvRow(const std::string& workload, const std::string& config,
                 const IntervalRow& row)
{
    std::string out = csvEscape(workload) + ',' + csvEscape(config);
    for (const auto& [name, value] : intervalEntries(row)) {
        (void)name;
        out += ',' + formatNumber(value);
    }
    return out;
}

std::string
telemetrySummaryToJsonLine(const std::string& workload,
                           const std::string& config,
                           const TelemetrySnapshot& snap)
{
    std::string out = "{\"row_type\":\"telemetry_summary\",\"workload\":\"" +
                      jsonEscape(workload) + "\",\"config\":\"" +
                      jsonEscape(config) + "\"";
    StatSet stats = snap.toStatSet();
    for (const auto& [name, value] : stats.entries()) {
        out += ",\"" + name + "\":" + formatNumber(value);
    }
    out += "}";
    return out;
}

std::string
profileSummaryToJsonLine(const std::string& workload,
                         const std::string& config,
                         const obs::ProfileSnapshot& prof)
{
    std::string out = "{\"row_type\":\"profile_summary\",\"workload\":\"" +
                      jsonEscape(workload) + "\",\"config\":\"" +
                      jsonEscape(config) +
                      "\",\"cycles\":" + std::to_string(prof.cycles) +
                      ",\"total_sec\":" + formatNumber(prof.totalSec);
    for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
        obs::ProfPhase p = static_cast<obs::ProfPhase>(i);
        std::string name = obs::profPhaseName(p);
        out += ",\"phase_" + name +
               "_sec\":" + formatNumber(prof.phaseSec[i]);
        out += ",\"phase_" + name +
               "_pct\":" + formatNumber(prof.phaseFrac(p) * 100.0);
    }
    out += "}";
    return out;
}

bool
TelemetrySink::openJson(const std::string& path)
{
    json.open(path, std::ios::out | std::ios::trunc);
    if (!json.is_open()) {
        std::fprintf(stderr, "[udp] cannot open telemetry JSON \"%s\"\n",
                     path.c_str());
        return false;
    }
    return true;
}

bool
TelemetrySink::openCsv(const std::string& path)
{
    csv.open(path, std::ios::out | std::ios::trunc);
    if (!csv.is_open()) {
        std::fprintf(stderr, "[udp] cannot open telemetry CSV \"%s\"\n",
                     path.c_str());
        return false;
    }
    writeLineAtomic(csv, intervalCsvHeader());
    return true;
}

void
TelemetrySink::writeRun(const std::string& workload,
                        const std::string& config,
                        const TelemetrySnapshot& snap)
{
    for (const IntervalRow& row : snap.intervals) {
        if (json.is_open()) {
            writeLineAtomic(json, intervalToJsonLine(workload, config, row));
        }
        if (csv.is_open()) {
            writeLineAtomic(csv, intervalToCsvRow(workload, config, row));
        }
    }
    if (json.is_open()) {
        writeLineAtomic(json,
                        telemetrySummaryToJsonLine(workload, config, snap));
    }
}

void
TelemetrySink::close()
{
    if (json.is_open()) {
        json.close();
    }
    if (csv.is_open()) {
        csv.close();
    }
}

} // namespace udp
