#include "frontend/ftq.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "stats/telemetry.h"

namespace udp {

Ftq::Ftq(std::size_t physical_capacity, std::size_t capacity)
    : physCap(physical_capacity),
      capacity_(std::clamp<std::size_t>(capacity, 1, physical_capacity))
{
}

void
Ftq::setCapacity(std::size_t c)
{
    capacity_ = std::clamp<std::size_t>(c, 1, physCap);
}

void
Ftq::push(FtqEntry e)
{
    assert(!full());
    ++stats_.pushes;
    if (telem_) {
        telem_->onFtqPush(e.startPc);
    }
    q.push_back(std::move(e));
}

FtqEntry
Ftq::popFront()
{
    assert(!q.empty());
    FtqEntry e = std::move(q.front());
    q.pop_front();
    return e;
}

void
Ftq::flush()
{
    ++stats_.flushes;
    if (telem_) {
        telem_->onFtqFlush(q.size());
    }
    q.clear();
}

void
Ftq::clearStats()
{
    stats_ = FtqStats{};
}

std::string
Ftq::checkInvariants(bool full) const
{
    char buf[192];
    if (q.size() > physCap) {
        std::snprintf(buf, sizeof(buf),
                      "size %zu exceeds physical capacity %zu", q.size(),
                      physCap);
        return buf;
    }
    if (capacity_ < 1 || capacity_ > physCap) {
        std::snprintf(buf, sizeof(buf),
                      "dynamic capacity %zu outside [1, %zu]", capacity_,
                      physCap);
        return buf;
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
        const FtqEntry& e = q[i];
        if (e.numInstrs == 0 || e.numInstrs > kInstrsPerFetchBlock) {
            std::snprintf(buf, sizeof(buf),
                          "entry %zu (id %llu) malformed: numInstrs=%u "
                          "outside [1, %u]",
                          i, static_cast<unsigned long long>(e.id),
                          e.numInstrs, kInstrsPerFetchBlock);
            return buf;
        }
        if (e.startPc == kInvalidAddr) {
            std::snprintf(buf, sizeof(buf),
                          "entry %zu (id %llu) malformed: invalid startPc",
                          i, static_cast<unsigned long long>(e.id));
            return buf;
        }
        for (unsigned k = 0; k < e.numInstrs; ++k) {
            if (e.instrs[k].pc == kInvalidAddr) {
                std::snprintf(buf, sizeof(buf),
                              "entry %zu (id %llu) malformed: instr %u "
                              "has invalid pc",
                              i, static_cast<unsigned long long>(e.id), k);
                return buf;
            }
        }
        if (full && i > 0 && q[i - 1].id >= e.id) {
            std::snprintf(buf, sizeof(buf),
                          "entry ids not monotonic at %zu (%llu >= %llu)",
                          i, static_cast<unsigned long long>(q[i - 1].id),
                          static_cast<unsigned long long>(e.id));
            return buf;
        }
    }
    return "";
}

std::string
Ftq::dumpState() const
{
    char buf[224];
    if (q.empty()) {
        std::snprintf(buf, sizeof(buf),
                      "[ftq] size=0/%zu (phys %zu) empty\n", capacity_,
                      physCap);
        return buf;
    }
    const FtqEntry& head = q.front();
    const FtqEntry& tail = q.back();
    std::snprintf(buf, sizeof(buf),
                  "[ftq] size=%zu/%zu (phys %zu) head={id=%llu "
                  "pc=0x%llx n=%u} tail={id=%llu pc=0x%llx}\n",
                  q.size(), capacity_, physCap,
                  static_cast<unsigned long long>(head.id),
                  static_cast<unsigned long long>(head.startPc),
                  head.numInstrs, static_cast<unsigned long long>(tail.id),
                  static_cast<unsigned long long>(tail.startPc));
    return buf;
}

} // namespace udp
