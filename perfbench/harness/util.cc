#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

HostInfo
hostInfo()
{
    HostInfo h;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                h.cpuModel = line.substr(line.find_first_not_of(' ', colon + 1));
            }
            break;
        }
    }
    if (h.cpuModel.empty()) {
        h.cpuModel = "unknown";
    }
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    h.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
#if defined(__clang__)
    h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    h.compiler = "gcc " __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.buildType = PERFBENCH_BUILD_TYPE;
    return h;
}

bool
loadPins(const std::string& path, std::vector<PinnedDigest>* out,
         std::string* err)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        *err = "cannot read pinned digests " + path;
        return false;
    }
    out->clear();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream ss(line);
        std::string app;
        std::string label;
        std::string hex;
        std::string extra;
        if (!(ss >> app >> label >> hex) || (ss >> extra) ||
            hex.size() != 16) {
            *err = "malformed pinned digest line in " + path + ": " + line;
            return false;
        }
        PinnedDigest p;
        p.key = app + " " + label;
        auto res =
            std::from_chars(hex.data(), hex.data() + hex.size(), p.digest, 16);
        if (res.ec != std::errc() || res.ptr != hex.data() + hex.size()) {
            *err = "malformed digest in " + path + ": " + hex;
            return false;
        }
        out->push_back(std::move(p));
    }
    return true;
}

bool
writePins(const std::string& path, const std::string& header,
          const std::vector<PinnedDigest>& pins)
{
    std::ofstream out(path, std::ios::trunc);
    out << header;
    for (const PinnedDigest& p : pins) {
        out << p.key << ' ' << hex64(p.digest) << '\n';
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
