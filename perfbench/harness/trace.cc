#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "stats/sink.h"

namespace perfbench {

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned idx = next++;
    return idx;
}

std::uint64_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lock(mtx);
    return nextId++;
}

void
Tracer::record(Span s)
{
    if (!on) {
        return;
    }
    std::lock_guard<std::mutex> lock(mtx);
    spans.push_back(std::move(s));
}

double
Tracer::total(const std::string& name, unsigned pass) const
{
    std::lock_guard<std::mutex> lock(mtx);
    double sum = 0.0;
    for (const Span& s : spans) {
        if (s.pass == pass && s.name == name) {
            sum += s.durSec;
        }
    }
    return sum;
}

std::size_t
Tracer::count(const std::string& name, unsigned pass) const
{
    std::lock_guard<std::mutex> lock(mtx);
    return static_cast<std::size_t>(
        std::count_if(spans.begin(), spans.end(), [&](const Span& s) {
            return s.pass == pass && s.name == name;
        }));
}

bool
Tracer::writeChromeTrace(const std::string& path,
                         const std::vector<udp::TraceJob>& profiles) const
{
    std::lock_guard<std::mutex> lock(mtx);
    double origin = 0.0;
    for (const Span& s : spans) {
        if (origin == 0.0 || s.startSec < origin) {
            origin = s.startSec;
        }
    }
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"args\":{\"name\":\"perfbench spans\"}}";
    for (const Span& s : spans) {
        out += ",\n{\"name\":\"" + udp::jsonEscape(s.name) +
               "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":" +
               std::to_string(s.tid) +
               ",\"ts\":" + udp::formatNumber((s.startSec - origin) * 1e6) +
               ",\"dur\":" + udp::formatNumber(s.durSec * 1e6) +
               ",\"args\":{\"id\":" + std::to_string(s.id) +
               ",\"parent\":" + std::to_string(s.parent) +
               ",\"pass\":" + std::to_string(s.pass) + "}}";
    }
    // The profiler tracks come from the simulator's own exporter (pids
    // 1..N, one per profiled point); splice its event array in after ours.
    std::string prof = udp::chromeTraceJson(profiles);
    std::size_t open = prof.find('[');
    std::size_t close = prof.rfind(']');
    if (open != std::string::npos && close != std::string::npos) {
        std::string body = prof.substr(open + 1, close - open - 1);
        if (body.find('{') != std::string::npos) {
            out += ",\n" + body;
        }
    }
    if (out.back() == '\n') {
        out.pop_back();
    }
    out += "\n]}\n";
    std::ofstream f(path, std::ios::trunc);
    f << out;
    f.flush();
    return static_cast<bool>(f);
}

} // namespace perfbench
