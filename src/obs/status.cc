#include "obs/status.h"

#include <cstddef>

#include "stats/sink.h"

namespace udp::obs {

namespace {

std::string
workerRowJson(const WorkerStatusRow& w)
{
    return "{\"name\":\"" + jsonEscape(w.name) +
           "\",\"active\":" + std::to_string(w.activeLeases) +
           ",\"claims\":" + std::to_string(w.claims) +
           ",\"completed\":" + std::to_string(w.completed) +
           ",\"failed\":" + std::to_string(w.failed) +
           ",\"retries\":" + std::to_string(w.retries) +
           ",\"stragglers\":" + std::to_string(w.stragglers) +
           ",\"renewals\":" + std::to_string(w.renewals) +
           ",\"expirations\":" + std::to_string(w.expirations) +
           ",\"last_seen_sec\":" + formatNumber(w.lastSeenSec) + "}";
}

bool
parseWorkerRow(const JsonValue& v, WorkerStatusRow* w)
{
    return v.get("name", &w->name) && v.get("active", &w->activeLeases) &&
           v.get("claims", &w->claims) &&
           v.get("completed", &w->completed) &&
           v.get("failed", &w->failed) && v.get("retries", &w->retries) &&
           v.get("stragglers", &w->stragglers) &&
           v.get("renewals", &w->renewals) &&
           v.get("expirations", &w->expirations) &&
           v.get("last_seen_sec", &w->lastSeenSec);
}

} // namespace

std::string
sweepStatusToJson(const SweepStatus& s)
{
    std::string out = "{\"status\":\"sweep\",\"name\":\"" +
                      jsonEscape(s.name) + "\",\"transport\":\"" +
                      jsonEscape(s.transport) +
                      "\",\"ts_ms\":" + std::to_string(s.tsMs) +
                      ",\"total\":" + std::to_string(s.total) +
                      ",\"done\":" + std::to_string(s.done) +
                      ",\"failed\":" + std::to_string(s.failed) +
                      ",\"resumed\":" + std::to_string(s.resumed) +
                      ",\"pending\":" + std::to_string(s.pending) +
                      ",\"leased\":" + std::to_string(s.leased) +
                      ",\"elapsed_sec\":" + formatNumber(s.elapsedSec) +
                      ",\"eta_sec\":" + formatNumber(s.etaSec) +
                      ",\"job_states\":\"" + jsonEscape(s.jobStates) +
                      "\",\"workers\":[";
    for (std::size_t i = 0; i < s.workers.size(); ++i) {
        if (i != 0) {
            out += ",";
        }
        out += workerRowJson(s.workers[i]);
    }
    out += "],\"metrics\":";
    out += s.metricsJson.empty() ? "{}" : s.metricsJson;
    out += "}";
    return out;
}

bool
sweepStatusFromJson(const std::string& json, SweepStatus* out)
{
    JsonValue root;
    SweepStatus s;
    std::string kind;
    if (!parseJson(json, &root) || !root.get("status", &kind) ||
        kind != "sweep" || !root.get("name", &s.name) ||
        !root.get("transport", &s.transport) ||
        !root.get("ts_ms", &s.tsMs) || !root.get("total", &s.total) ||
        !root.get("done", &s.done) || !root.get("failed", &s.failed) ||
        !root.get("resumed", &s.resumed) ||
        !root.get("pending", &s.pending) || !root.get("leased", &s.leased) ||
        !root.get("elapsed_sec", &s.elapsedSec) ||
        !root.get("eta_sec", &s.etaSec) ||
        !root.get("job_states", &s.jobStates)) {
        return false;
    }
    const JsonValue* workers = root.find("workers");
    if (!workers || !workers->isArray()) {
        return false;
    }
    for (const JsonValue& row : workers->items) {
        WorkerStatusRow w;
        if (!parseWorkerRow(row, &w)) {
            return false;
        }
        s.workers.push_back(std::move(w));
    }
    // Opaque to this parser: kept as the raw JSON text.
    const JsonValue* metrics = root.find("metrics");
    s.metricsJson = metrics ? std::string(metrics->raw) : "{}";
    *out = std::move(s);
    return true;
}

} // namespace udp::obs
