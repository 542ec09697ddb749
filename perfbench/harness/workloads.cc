#include "workloads.h"

#include <stdexcept>

#include "common/rng.h"
#include "util.h"

namespace perfbench {

using namespace udp;

namespace {

const std::vector<std::string> kFig13Configs = {"fdip32", "udp8k", "inf",
                                                "ic40k", "eip"};

std::vector<std::string>
allApps()
{
    std::vector<std::string> v;
    for (const Profile& p : datacenterProfiles()) {
        v.push_back(p.name);
    }
    return v;
}

} // namespace

const std::vector<Workload>&
workloads()
{
    // Why each workload exists is documented in README.md; the windows
    // were sized so one pass is a few seconds on a 4-core 2.1 GHz host.
    static const std::vector<Workload> w = {
        {"fig13", "fig13", 2, false, 20'000, 40'000, allApps(), 1,
         kFig13Configs},
        {"fig13_tcp", "fig13", 2, true, 20'000, 40'000, allApps(), 1,
         kFig13Configs},
        {"xgboost_udp", "xgboost_udp", 1, false, 15'000, 50'000,
         {"xgboost"}, 8, {"fdip32", "udp8k"}},
        {"mysql_fdip", "mysql_fdip", 1, false, 25'000, 100'000, {"mysql"},
         16, {"fdip32"}},
    };
    return w;
}

const Workload*
findWorkload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (w.name == name) {
            return &w;
        }
    }
    return nullptr;
}

SimConfig
configFor(const std::string& label)
{
    if (label == "fdip32") {
        return presets::fdipBaseline();
    }
    if (label == "udp8k") {
        return presets::udp8k();
    }
    if (label == "inf") {
        return presets::udpInfinite();
    }
    if (label == "ic40k") {
        return presets::bigIcache40k();
    }
    if (label == "eip") {
        return presets::eip8k();
    }
    throw std::invalid_argument("unknown configuration label " + label);
}

std::vector<SweepJob>
makeJobs(const Workload& w, std::uint64_t seed)
{
    std::vector<SweepJob> jobs;
    RunOptions o;
    o.warmupInstrs = w.warmupInstrs;
    o.measureInstrs = w.measureInstrs;
    for (const std::string& app : w.apps) {
        Profile p = profileByName(app);
        for (unsigned k = 0; k < w.instances; ++k) {
            p.seed = hashCombine(hashCombine(seed, fnv1a(app)), k);
            for (const std::string& label : w.configs) {
                jobs.push_back({p, configFor(label), o, label});
            }
        }
    }
    return jobs;
}

std::vector<Profile>
distinctProfiles(const std::vector<SweepJob>& jobs)
{
    std::vector<Profile> out;
    for (const SweepJob& j : jobs) {
        if (out.empty() || out.back().name != j.profile.name ||
            out.back().seed != j.profile.seed) {
            out.push_back(j.profile);
        }
    }
    return out;
}

std::vector<std::size_t>
profileIndexOfJobs(const std::vector<SweepJob>& jobs)
{
    std::vector<std::size_t> idx;
    std::size_t cur = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i != 0 && (jobs[i].profile.name != jobs[i - 1].profile.name ||
                       jobs[i].profile.seed != jobs[i - 1].profile.seed)) {
            ++cur;
        }
        idx.push_back(cur);
    }
    return idx;
}

} // namespace perfbench
