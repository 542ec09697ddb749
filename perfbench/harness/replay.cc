#include "replay.h"

#include "bpred/tage.h"
#include "cache/cache.h"
#include "core/bloom.h"
#include "core/useful_set.h"
#include "workload/walker.h"

namespace perfbench {

using namespace udp;

ReplayResult
replayStreams(const Workload& w, const ProgramSet& programs, Tracer& tr,
              unsigned pass)
{
    ReplayResult out;
    const std::uint64_t steps = w.warmupInstrs + w.measureInstrs;
    const SimConfig base = configFor(w.configs.front());
    std::vector<SimConfig> udpConfigs;
    for (const std::string& label : w.configs) {
        if (configFor(label).udpEnabled) {
            udpConfigs.push_back(configFor(label));
        }
    }
    double walkSec = 0.0;
    double tageSec = 0.0;
    double l1iSec = 0.0;
    double bloomSec = 0.0;
    double lookupSec = 0.0;
    double learnSec = 0.0;
    std::uint64_t branches = 0;
    std::uint64_t lineOps = 0;
    std::uint64_t sum = 0;
    std::uint64_t parent = tr.newId();
    double t0 = nowSec();

    for (const auto& progPtr : programs.programs) {
        const Program& prog = *progPtr;
        std::vector<ArchInstr> stream(steps);
        walkSec += timedSpan(tr, "workload.walk", pass, parent, [&] {
            Walker walker(prog);
            for (std::uint64_t i = 0; i < steps; ++i) {
                stream[i] = walker.step();
            }
        });

        std::vector<const ArchInstr*> conds;
        std::vector<Addr> lines;
        for (const ArchInstr& a : stream) {
            if (prog.instrAt(a.idx).branch == BranchKind::CondDirect) {
                conds.push_back(&a);
            }
            Addr line = lineAddr(a.pc);
            if (lines.empty() || lines.back() != line) {
                lines.push_back(line);
            }
        }
        branches += conds.size();
        lineOps += lines.size();

        Tage tage(base.bpu.tage);
        tageSec += timedSpan(tr, "bpred.tage_replay", pass, parent, [&] {
            for (const ArchInstr* a : conds) {
                TagePrediction p = tage.predict(a->pc);
                tage.specUpdateHistory(a->taken, a->pc);
                tage.update(a->pc, p, a->taken);
                sum += p.taken == a->taken;
            }
        });

        CacheConfig cc;
        cc.name = "l1i";
        cc.sizeBytes = base.mem.l1iSize;
        cc.assoc = base.mem.l1iAssoc;
        SetAssocCache l1i(cc);
        l1iSec += timedSpan(tr, "cache.l1i_replay", pass, parent, [&] {
            for (Addr line : lines) {
                if (!l1i.demandAccess(line)) {
                    l1i.insert(line, false);
                    ++sum;
                }
            }
        });

        for (const SimConfig& uc : udpConfigs) {
            const UsefulSetConfig& usc = uc.udp.usefulSet;
            BloomFilter bloom(usc.bits1, usc.numHashes);
            bloomSec += timedSpan(tr, "core.bloom_replay", pass, parent, [&] {
                for (Addr line : lines) {
                    if (!bloom.contains(line)) {
                        if (bloom.full()) {
                            bloom.clear();
                        }
                        bloom.insert(line);
                        ++sum;
                    }
                }
            });
            UsefulSet set(usc);
            learnSec += timedSpan(tr, "core.useful_set_learn", pass, parent,
                                  [&] {
                                      for (Addr line : lines) {
                                          set.learn(line);
                                      }
                                  });
            lookupSec += timedSpan(tr, "core.useful_set_lookup", pass, parent,
                                   [&] {
                                       for (Addr line : lines) {
                                           sum += set.lookup(line);
                                       }
                                   });
            out.udpOps += lines.size();
        }
    }

    if (tr.enabled()) {
        tr.record({"replay", pass, threadIndex(), parent, 0, t0,
                   nowSec() - t0});
    }

    auto perOpNs = [](double sec, std::uint64_t ops) {
        return ops == 0 ? 0.0 : sec * 1e9 / static_cast<double>(ops);
    };
    std::uint64_t walked = steps * programs.programs.size();
    out.walkNs = perOpNs(walkSec, walked);
    out.tageNs = perOpNs(tageSec, branches);
    out.l1iAccessNs = perOpNs(l1iSec, lineOps);
    out.bloomNs = perOpNs(bloomSec, out.udpOps);
    out.usefulLookupNs = perOpNs(lookupSec, out.udpOps);
    out.usefulLearnNs = perOpNs(learnSec, out.udpOps);
    out.checksum = sum;
    return out;
}

} // namespace perfbench
