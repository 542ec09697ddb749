#include "frontend/decoupled_fe.h"

#include <cassert>

#include "common/intmath.h"
#include "core/udp_engine.h"
#include "stats/telemetry.h"

namespace udp {

DecoupledFrontend::DecoupledFrontend(const Program& prog, TrueStream& strm,
                                     Bpu& bp, Ftq& q, BranchRecordMap& recs,
                                     const FrontendConfig& c)
    : program(prog), stream(strm), bpu(bp), ftq(q), records(recs), cfg(c),
      pc(prog.entryPc())
{
}

Addr
DecoupledFrontend::clampPc(Addr a) const
{
    if (program.validPc(a)) {
        return a;
    }
    // Wrong-path fetch ran off the image: wrap into the code segment so
    // speculative navigation always sees real bytes.
    std::uint64_t span = program.codeBytes();
    Addr off = a >= Program::kCodeBase ? (a - Program::kCodeBase) % span : 0;
    return Program::kCodeBase + alignDown(off, kInstrBytes);
}

void
DecoupledFrontend::tick(Cycle now)
{
    if (now < stallUntil) {
        ++stats_.stallCyclesRedirect;
        return;
    }
    for (unsigned b = 0; b < cfg.blocksPerCycle; ++b) {
        if (ftq.full()) {
            ftq.noteFullStall();
            ++stats_.stallCyclesFtqFull;
            return;
        }
        buildBlock();
    }
}

void
DecoupledFrontend::buildBlock()
{
    FtqEntry entry;
    entry.startPc = pc;
    entry.onPath = aligned;
    entry.assumedOffPath = udp_ && udp_->assumedOffPath();

    Addr cur = pc;
    const Addr region_end = fetchBlockAddr(pc) + kFetchBlockBytes;
    Addr next_pc = kInvalidAddr;

    while (cur < region_end && entry.numInstrs < kInstrsPerFetchBlock) {
        cur = clampPc(cur);
        FtqInstr fi;
        fi.idx = program.indexOf(cur);
        fi.pc = cur;
        fi.dynId = dynIdCounter++;
        fi.onPath = aligned;
        fi.streamIdx = streamIdx;

        ++stats_.instrsEmitted;
        if (aligned) {
            ++stats_.onPathInstrs;
            assert(stream.at(streamIdx).pc == cur &&
                   "aligned frontend must track the true stream");
        } else {
            ++stats_.offPathInstrs;
        }

        // Hardware view: the BTB tells the frontend where branches are.
        if (const BtbEntry* be = bpu.btb().lookup(cur)) {
            BranchRecord rec;
            fi.predictedBranch = true;
            fi.predTarget = predictBranch(cur, be->kind, be->target, rec);
            fi.predTaken = fi.predTarget != kInvalidAddr;
            records.emplace(fi.dynId, std::move(rec));
        }

        Addr my_next = fi.predTaken ? fi.predTarget : cur + kInstrBytes;

        // Ground-truth alignment: did this speculative step leave the
        // architectural path? (Covers mispredictions *and* BTB misses on
        // taken branches, where the frontend silently goes sequential.)
        if (aligned) {
            const ArchInstr& truth = stream.at(streamIdx);
            ++streamIdx;
            if (clampPc(my_next) != truth.nextPc) {
                aligned = false;
            }
        }

        entry.instrs[entry.numInstrs++] = fi;
        cur += kInstrBytes;
        if (fi.predTaken) {
            next_pc = fi.predTarget;
            break;
        }
    }

    if (next_pc == kInvalidAddr) {
        next_pc = cur; // sequential fall-through to the next block
    }
    pc = clampPc(next_pc);

    ++stats_.blocksBuilt;
    ftq.push(std::move(entry));
}

Addr
DecoupledFrontend::predictBranch(Addr branch_pc, BranchKind kind,
                                 Addr btb_target, BranchRecord& rec)
{
    assert(kind != BranchKind::None && "only branches are predicted");
    rec.kind = kind;
    rec.ckpt = bpu.checkpoint();
    const Addr fall_through = branch_pc + kInstrBytes;
    Addr target = btb_target;

    switch (kind) {
      case BranchKind::CondDirect:
        rec.cond = bpu.predictCond(branch_pc);
        if (udp_) {
            udp_->onCondPredicted(rec.cond.conf);
        }
        return rec.cond.taken ? btb_target : kInvalidAddr;
      case BranchKind::Jump:
        break;
      case BranchKind::Call:
        bpu.pushReturn(fall_through);
        break;
      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
        rec.indirect = bpu.predictIndirect(branch_pc);
        if (rec.indirect.target != kInvalidAddr) {
            target = rec.indirect.target;
        }
        if (kind == BranchKind::IndirectCall) {
            bpu.pushReturn(fall_through);
        }
        break;
      case BranchKind::Return:
        target = bpu.predictReturn();
        break;
      case BranchKind::None:
        return kInvalidAddr;
    }
    bpu.notifyUnconditional(branch_pc);
    // Cold indirect or empty RAS: fall through.
    return target != kInvalidAddr ? target : fall_through;
}

void
DecoupledFrontend::resteer(Cycle resume_at, Addr new_pc, bool is_aligned,
                           std::uint64_t next_stream_idx, bool from_decode)
{
    pc = clampPc(new_pc);
    aligned = is_aligned;
    streamIdx = next_stream_idx;
    stallUntil = resume_at;
    ++stats_.resteers;
    if (from_decode) {
        ++stats_.decodeResteers;
        if (udp_) {
            udp_->onBtbMissTaken();
        }
    }
    if (telem_) {
        telem_->onResteer(pc, from_decode);
    }
}

} // namespace udp
