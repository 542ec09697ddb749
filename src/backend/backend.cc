#include "backend/backend.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>

#include "common/rng.h"
#include "core/udp_engine.h"
#include "workload/outcome.h"

namespace udp {

Backend::Backend(const Program& prog, TrueStream& strm, MemSystem& m,
                 Bpu& bp, BranchRecordMap& recs, const BackendConfig& c)
    : program(prog), stream(strm), mem(m), bpu(bp), records(recs), cfg(c)
{
    std::size_t slots = std::bit_ceil(std::max<std::size_t>(cfg.robSize, 64));
    rob.resize(slots);
    robMask = slots - 1;
    readyBits.assign(slots / 64, 0);
}

Backend::RobEntry*
Backend::entryAt(std::uint64_t pos)
{
    if (pos < robBasePos || pos - robBasePos >= robCount) {
        return nullptr;
    }
    return &slotOf(pos);
}

void
Backend::addWakeEdge(RobEntry& producer, const RobEntry& consumer)
{
    std::uint32_t i = freeEdge;
    if (i != kNoEdge) {
        freeEdge = edges[i].next;
    } else {
        i = static_cast<std::uint32_t>(edges.size());
        edges.emplace_back();
    }
    edges[i] = WakeEdge{consumer.pos, consumer.seq, producer.wakeHead};
    producer.wakeHead = i;
}

void
Backend::freeWakeEdges(std::uint32_t head)
{
    while (head != kNoEdge) {
        std::uint32_t next = edges[head].next;
        edges[head].next = freeEdge;
        freeEdge = head;
        head = next;
    }
}

void
Backend::wakeConsumers(RobEntry& producer)
{
    std::uint32_t i = producer.wakeHead;
    producer.wakeHead = kNoEdge;
    while (i != kNoEdge) {
        WakeEdge& edge = edges[i];
        // A consumer squashed since dispatch leaves a stale edge; its
        // position may now hold a younger instruction with another seq.
        RobEntry* c = entryAt(edge.consumerPos);
        if (c && c->seq == edge.consumerSeq && --c->waiting == 0) {
            markReady(c->pos);
        }
        std::uint32_t next = edge.next;
        edge.next = freeEdge;
        freeEdge = i;
        i = next;
    }
}

bool
Backend::canDispatch(const DecodedInstr& di) const
{
    if (robCount >= cfg.robSize) {
        return false;
    }
    if (rsCount >= cfg.rsSize) {
        return false;
    }
    if (di.type == InstrType::Load && loadsInFlight >= cfg.lqSize) {
        return false;
    }
    if (di.type == InstrType::Store && storesInFlight >= cfg.sqSize) {
        return false;
    }
    return true;
}

void
Backend::dispatch(const DecodedInstr& di, Cycle now)
{
    assert(canDispatch(di));
    std::uint64_t pos = robBasePos + robCount;
    RobEntry& e = slotOf(pos);
    e = RobEntry();
    e.di = di;
    e.pos = pos;
    e.seq = ++dispatchSeq;
    e.dispatchedAt = now;
    ++robCount;
    ++rsCount;

    // Producers at pos-dep1 / pos-dep2 that are still in flight get a
    // wake edge; retired or completed ones are already satisfied. Two
    // operands from one producer make one edge.
    auto waitOn = [&](unsigned dep) {
        if (dep == 0 || pos < robBasePos + dep) {
            return; // no producer, or it already retired
        }
        RobEntry& p = slotOf(pos - dep);
        if (!p.completed) {
            addWakeEdge(p, e);
            ++e.waiting;
        }
    };
    waitOn(di.dep1);
    if (di.dep2 != di.dep1) {
        waitOn(di.dep2);
    }
    if (e.waiting == 0) {
        markReady(pos);
    }

    if (di.type == InstrType::Load) {
        ++loadsInFlight;
    } else if (di.type == InstrType::Store) {
        ++storesInFlight;
    }
    ++stats_.dispatched;
}

void
Backend::resolveBranch(RobEntry& e)
{
    const DecodedInstr& di = e.di;
    e.resolved = true;
    ++stats_.branchesResolved;

    Addr pred_next = di.predTaken ? di.predTarget : di.pc + kInstrBytes;

    if (di.onPath) {
        const ArchInstr& truth = stream.at(di.streamIdx);
        e.actualTaken = di.kind == BranchKind::CondDirect ? truth.taken
                                                          : true;
        e.actualNext = truth.nextPc;
    } else {
        // Wrong-path branch: resolve against the stateless wrong-path
        // oracle so consequent mispredictions re-resteer the wrong path.
        const Instr& sin = program.instrAt(di.idx);
        auto rec_it = records.find(di.dynId);
        std::uint64_t spec_hist =
            rec_it != records.end() ? rec_it->second.ckpt.hist64 : 0;
        switch (di.kind) {
          case BranchKind::CondDirect: {
            const BranchBehavior& b = program.condBehavior(sin);
            e.actualTaken =
                condOutcomeWrongPath(b, spec_hist, di.dynId);
            e.actualNext = e.actualTaken ? program.pcOf(sin.target)
                                         : di.pc + kInstrBytes;
            break;
          }
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall: {
            const IndirectBehavior& b = program.indirectBehavior(sin);
            std::uint32_t choice =
                indirectChoiceWrongPath(b, spec_hist, di.dynId);
            e.actualTaken = true;
            e.actualNext = program.pcOf(program.indirectTarget(b, choice));
            break;
          }
          case BranchKind::Jump:
          case BranchKind::Call:
            e.actualTaken = true;
            e.actualNext = program.pcOf(sin.target);
            break;
          case BranchKind::Return:
            // RAS repairs make wrong-path returns effectively correct.
            e.actualTaken = true;
            e.actualNext = pred_next;
            break;
          case BranchKind::None:
            break;
        }
    }

    e.mispredicted = pred_next != e.actualNext;
    if (e.mispredicted) {
        ++stats_.mispredictsResolved;
    }
}

void
Backend::completeReady(Cycle now)
{
    while (!completions.empty() && completions.top().first <= now) {
        auto [when, pos] = completions.top();
        completions.pop();
        RobEntry* e = entryAt(pos);
        if (!e || !e->issued || e->completed || e->completeAt != when) {
            continue; // squashed or stale heap entry
        }
        e->completed = true;
        wakeConsumers(*e);
        if (e->di.kind != BranchKind::None && !e->resolved) {
            resolveBranch(*e);
            if (e->mispredicted) {
                pendingRecovery.push_back(e->pos);
            }
        }
    }
}

void
Backend::squashAfter(std::uint64_t pos)
{
    while (robCount > 0 && robBasePos + robCount - 1 > pos) {
        RobEntry& victim = slotOf(robBasePos + robCount - 1);
        if (victim.di.predictedBranch) {
            records.erase(victim.di.dynId);
        }
        if (victim.di.type == InstrType::Load) {
            --loadsInFlight;
        } else if (victim.di.type == InstrType::Store) {
            --storesInFlight;
        }
        if (!victim.issued) {
            --rsCount;
            clearReady(victim.pos);
        }
        freeWakeEdges(victim.wakeHead);
        victim.wakeHead = kNoEdge;
        ++stats_.squashed;
        --robCount;
    }
}

ResteerRequest
Backend::handleRecovery(Cycle now)
{
    (void)now;
    ResteerRequest req;

    // Handle the oldest pending recovery (one per cycle, as in hardware).
    while (!pendingRecovery.empty()) {
        auto min_it = std::min_element(pendingRecovery.begin(),
                                       pendingRecovery.end());
        std::uint64_t pos = *min_it;
        pendingRecovery.erase(min_it);

        RobEntry* e = entryAt(pos);
        if (!e || e->di.kind == BranchKind::None || !e->resolved ||
            !e->mispredicted || e->resteerHandled) {
            continue; // squashed or stale
        }

        e->resteerHandled = true;
        squashAfter(e->pos);
        // Drop now-squashed recoveries.
        pendingRecovery.erase(
            std::remove_if(pendingRecovery.begin(), pendingRecovery.end(),
                           [p = e->pos](std::uint64_t q) { return q > p; }),
            pendingRecovery.end());

        auto rec_it = records.find(e->di.dynId);
        if (rec_it != records.end()) {
            bpu.recoverTo(rec_it->second.ckpt, e->di.pc,
                          e->di.kind == BranchKind::CondDirect,
                          e->actualTaken);
        }

        req.valid = true;
        req.newPc = e->actualNext;
        req.aligned = e->di.onPath;
        req.nextStreamIdx = e->di.onPath ? e->di.streamIdx + 1 : 0;
        req.squashAfterDynId = e->di.dynId;
        req.fromOnPath = e->di.onPath;
        if (!e->di.onPath) {
            ++stats_.wrongPathResteers;
        }
        return req;
    }
    return req;
}

void
Backend::retire(Cycle now)
{
    (void)now;
    if (retireFrozen) {
        return;
    }
    unsigned budget = cfg.retireWidth;
    while (budget > 0 && robCount > 0 && slotOf(robBasePos).completed) {
        RobEntry& e = slotOf(robBasePos);
        if (e.di.kind != BranchKind::None && e.mispredicted &&
            !e.resteerHandled) {
            break; // recovery must run before this branch retires
        }
        assert(e.di.onPath && "only architectural-path instructions retire");

        // Train the predictors with the architectural outcome.
        if (e.di.predictedBranch) {
            auto rec_it = records.find(e.di.dynId);
            if (rec_it != records.end()) {
                const BranchRecord& rec = rec_it->second;
                switch (e.di.kind) {
                  case BranchKind::CondDirect:
                    bpu.trainCond(e.di.pc, rec.cond, e.actualTaken);
                    break;
                  case BranchKind::IndirectJump:
                  case BranchKind::IndirectCall:
                    bpu.trainIndirect(e.di.pc, rec.indirect, e.actualNext);
                    // Refresh the BTB's last-target hint.
                    bpu.btb().insert(e.di.pc, e.di.kind, e.actualNext);
                    break;
                  default:
                    break;
                }
                records.erase(rec_it);
            }
        }

        if (udp_) {
            udp_->onRetire(e.di.pc);
        }

        if (e.di.type == InstrType::Load) {
            --loadsInFlight;
        } else if (e.di.type == InstrType::Store) {
            --storesInFlight;
        }

        stream.retireBelow(e.di.streamIdx + 1);
        ++robBasePos;
        --robCount;
        ++stats_.retired;
        --budget;
    }
}

void
Backend::issue(Cycle now)
{
    unsigned budget = cfg.issueWidth;
    unsigned alu = cfg.numAlu;
    unsigned lds = cfg.numLoad;
    unsigned sts = cfg.numStore;

    // Walk the ready set oldest first: from the head slot to the end of
    // its word and on around the ring, ending with the head word's bits
    // below the head slot (the youngest entries when the ROB wraps).
    // Only ready entries are visited; an entry whose functional unit is
    // used up stays ready for the next cycle.
    const std::size_t words = readyBits.size();
    const std::size_t head = static_cast<std::size_t>(robBasePos & robMask);
    const std::size_t headWord = head >> 6;
    const std::uint64_t belowHead = (std::uint64_t{1} << (head & 63)) - 1;
    for (std::size_t k = 0; k <= words && budget > 0; ++k) {
        std::size_t w = (headWord + k) & (words - 1);
        std::uint64_t bits = readyBits[w];
        if (k == 0) {
            bits &= ~belowHead;
        } else if (k == words) {
            bits &= belowHead;
        }
        for (; bits != 0 && budget > 0; bits &= bits - 1) {
            unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            RobEntry& e = rob[w * 64 + b];
            unsigned* fu = nullptr;
            switch (e.di.type) {
              case InstrType::Alu:
              case InstrType::Branch:
                fu = &alu;
                break;
              case InstrType::Load:
                fu = &lds;
                break;
              case InstrType::Store:
                fu = &sts;
                break;
            }
            if (*fu == 0) {
                continue;
            }
            --*fu;
            --budget;
            readyBits[w] &= ~(std::uint64_t{1} << b);
            issueEntry(e, now);
        }
    }
}

void
Backend::issueEntry(RobEntry& e, Cycle now)
{
    e.issued = true;
    --rsCount;
    ++stats_.issued;

    Cycle done;
    switch (e.di.type) {
      case InstrType::Load: {
        Addr addr;
        if (e.di.onPath) {
            addr = stream.at(e.di.streamIdx).memAddr;
        } else {
            const Instr& sin = program.instrAt(e.di.idx);
            addr = memAddress(program.memPattern(sin), mix64(e.di.dynId));
        }
        done = mem.dload(addr, now, e.di.onPath);
        break;
      }
      case InstrType::Store: {
        Addr addr;
        if (e.di.onPath) {
            addr = stream.at(e.di.streamIdx).memAddr;
        } else {
            const Instr& sin = program.instrAt(e.di.idx);
            addr = memAddress(program.memPattern(sin),
                              mix64(e.di.dynId ^ 0x5151));
        }
        mem.dstore(addr, now);
        done = now + 1;
        break;
      }
      case InstrType::Branch:
        done = now + cfg.branchExecLat;
        break;
      case InstrType::Alu:
      default:
        done = now + e.di.execLat;
        break;
    }
    e.completeAt = done;
    completions.emplace(done, e.pos);
}

ResteerRequest
Backend::tick(Cycle now)
{
    completeReady(now);
    ResteerRequest req = handleRecovery(now);
    retire(now);
    issue(now);
    if (robCount >= cfg.robSize) {
        ++stats_.robFullStalls;
    }
    return req;
}

std::string
Backend::checkInvariants(bool full) const
{
    char buf[160];
    if (robCount > cfg.robSize) {
        std::snprintf(buf, sizeof(buf), "ROB occupancy %zu exceeds %u",
                      robCount, cfg.robSize);
        return buf;
    }
    if (rsCount > cfg.rsSize) {
        std::snprintf(buf, sizeof(buf), "RS occupancy %u exceeds %u",
                      rsCount, cfg.rsSize);
        return buf;
    }
    if (loadsInFlight > cfg.lqSize) {
        std::snprintf(buf, sizeof(buf), "LQ credits %u exceed %u",
                      loadsInFlight, cfg.lqSize);
        return buf;
    }
    if (storesInFlight > cfg.sqSize) {
        std::snprintf(buf, sizeof(buf), "SQ credits %u exceed %u",
                      storesInFlight, cfg.sqSize);
        return buf;
    }
    if (!full) {
        return "";
    }

    // Credit conservation: every dispatch increments, every retire or
    // squash decrements (issue, for the RS), so the counters must equal
    // a recount of the ROB contents.
    unsigned loads = 0;
    unsigned stores = 0;
    unsigned unissued = 0;
    std::size_t readyLive = 0;
    std::size_t chained = 0;
    for (std::uint64_t pos = robBasePos; pos < robBasePos + robCount;
         ++pos) {
        const RobEntry& e = slotOf(pos);
        if (e.di.type == InstrType::Load) {
            ++loads;
        } else if (e.di.type == InstrType::Store) {
            ++stores;
        }
        unissued += e.issued ? 0 : 1;

        // waiting must equal a recount of the distinct producers still
        // in flight, and the ready set must hold exactly the unissued
        // entries with none.
        auto inFlight = [&](unsigned dep) -> unsigned {
            return dep != 0 && pos >= robBasePos + dep &&
                   !slotOf(pos - dep).completed;
        };
        unsigned producers = inFlight(e.di.dep1);
        if (e.di.dep2 != e.di.dep1) {
            producers += inFlight(e.di.dep2);
        }
        if (e.issued && producers > 0) {
            std::snprintf(buf, sizeof(buf),
                          "pos %llu issued with %u producer(s) in flight",
                          static_cast<unsigned long long>(pos), producers);
            return buf;
        }
        if (e.waiting != producers) {
            std::snprintf(buf, sizeof(buf),
                          "pos %llu waits on %u producer(s), recount %u",
                          static_cast<unsigned long long>(pos),
                          unsigned{e.waiting}, producers);
            return buf;
        }
        readyLive += isReady(pos) ? 1 : 0;
        if (isReady(pos) != (!e.issued && e.waiting == 0)) {
            std::snprintf(buf, sizeof(buf),
                          "pos %llu ready bit %d but issued=%d waiting=%u",
                          static_cast<unsigned long long>(pos),
                          isReady(pos) ? 1 : 0, e.issued ? 1 : 0,
                          unsigned{e.waiting});
            return buf;
        }
        if (e.completed && e.wakeHead != kNoEdge) {
            std::snprintf(buf, sizeof(buf),
                          "completed pos %llu still holds wake edges",
                          static_cast<unsigned long long>(pos));
            return buf;
        }
        for (std::uint32_t i = e.wakeHead; i != kNoEdge; i = edges[i].next) {
            ++chained;
        }
    }
    if (loads != loadsInFlight || stores != storesInFlight) {
        std::snprintf(buf, sizeof(buf),
                      "LSQ credit leak: counters %u/%u vs ROB recount "
                      "%u/%u (loads/stores)",
                      loadsInFlight, storesInFlight, loads, stores);
        return buf;
    }
    if (unissued != rsCount) {
        std::snprintf(buf, sizeof(buf),
                      "RS occupancy %u vs ROB recount of unissued %u",
                      rsCount, unissued);
        return buf;
    }

    // The ready set is ordered by construction (ring slots from the
    // head); every set bit must name a live slot, so the walk from the
    // head visits strictly increasing positions.
    std::size_t readyAll = 0;
    for (std::uint64_t word : readyBits) {
        readyAll += static_cast<std::size_t>(std::popcount(word));
    }
    if (readyAll != readyLive) {
        std::snprintf(buf, sizeof(buf),
                      "ready set has %zu entries outside the ROB window",
                      readyAll - readyLive);
        return buf;
    }

    // Edge conservation: every pooled edge is either on the free list or
    // chained to an uncompleted live producer.
    std::size_t freeCount = 0;
    for (std::uint32_t i = freeEdge; i != kNoEdge; i = edges[i].next) {
        ++freeCount;
    }
    if (chained + freeCount != edges.size()) {
        std::snprintf(buf, sizeof(buf),
                      "wake edge leak: %zu chained + %zu free of %zu",
                      chained, freeCount, edges.size());
        return buf;
    }
    return "";
}

std::string
Backend::dumpState(Cycle now) const
{
    char buf[320];
    std::size_t ready = 0;
    for (std::uint64_t word : readyBits) {
        ready += static_cast<std::size_t>(std::popcount(word));
    }
    if (robCount == 0) {
        std::snprintf(buf, sizeof(buf),
                      "[rob] occupancy=0/%u rs=%u/%u ready=%zu retired=%llu "
                      "frozen=%d\n",
                      cfg.robSize, rsCount, cfg.rsSize, ready,
                      static_cast<unsigned long long>(stats_.retired),
                      retireFrozen ? 1 : 0);
        return buf;
    }
    const RobEntry& head = slotOf(robBasePos);
    std::snprintf(
        buf, sizeof(buf),
        "[rob] occupancy=%zu/%u rs=%u/%u ready=%zu retired=%llu frozen=%d "
        "lq=%u/%u sq=%u/%u "
        "oldest={pc=0x%llx age=%llu issued=%d completed=%d "
        "mispredicted=%d waiting=%u}\n",
        robCount, cfg.robSize, rsCount, cfg.rsSize, ready,
        static_cast<unsigned long long>(stats_.retired),
        retireFrozen ? 1 : 0, loadsInFlight, cfg.lqSize, storesInFlight,
        cfg.sqSize, static_cast<unsigned long long>(head.di.pc),
        static_cast<unsigned long long>(now - head.dispatchedAt),
        head.issued ? 1 : 0, head.completed ? 1 : 0,
        head.mispredicted ? 1 : 0, unsigned{head.waiting});
    return buf;
}

} // namespace udp
