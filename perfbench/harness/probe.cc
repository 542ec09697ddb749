#include "probe.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util.h"

namespace perfbench {

namespace {

/** Folded result, so the compiler cannot drop the work. */
std::atomic<std::uint64_t> g_sink{0};

/**
 * Frozen kernel: hashed predictor tables with saturating counters, a
 * 32 KiB 8-way LRU cache over a skewed address stream backed by 2 MiB of
 * memory, and a ring of dependent entries. Do not change it: its time is
 * the yardstick that makes runs on different days comparable.
 */
std::uint64_t
kernel()
{
    constexpr std::uint64_t kSteps = 1'500'000;
    constexpr unsigned kTables = 8;
    constexpr unsigned kEntries = 4096;
    constexpr unsigned kSets = 64;
    constexpr unsigned kWays = 8;
    std::vector<std::array<std::int8_t, kEntries>> ctr(kTables);
    for (auto& t : ctr) {
        t.fill(0);
    }
    std::vector<std::uint64_t> tag(kSets * kWays, ~std::uint64_t{0});
    std::vector<std::uint64_t> lru(kSets * kWays, 0);
    std::vector<std::uint32_t> mem(1u << 19);
    for (std::size_t i = 0; i < mem.size(); ++i) {
        mem[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    std::array<std::uint64_t, 128> ring{};
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t hist = 0;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        bool outcome = ((x >> 11) & 7) < 5;
        int sum = 0;
        for (unsigned t = 0; t < kTables; ++t) {
            sum += ctr[t][((x >> 20) ^ (hist >> t) ^ (t * 977)) & (kEntries - 1)];
        }
        for (unsigned t = 0; t < kTables; ++t) {
            std::int8_t& c =
                ctr[t][((x >> 20) ^ (hist >> t) ^ (t * 977)) & (kEntries - 1)];
            if (outcome && c < 3) {
                ++c;
            } else if (!outcome && c > -4) {
                --c;
            }
        }
        acc += (sum >= 0) == outcome;
        hist = (hist << 1) | outcome;
        std::uint64_t line =
            (x & 0xff) < 200 ? (x >> 30) & 0x3ff : (x >> 30) & 0xffff;
        std::size_t set = line & (kSets - 1);
        bool hit = false;
        for (unsigned w = 0; w < kWays; ++w) {
            if (tag[set * kWays + w] == line) {
                hit = true;
                lru[set * kWays + w] = i;
                break;
            }
        }
        if (hit) {
            ++acc;
        } else {
            unsigned victim = 0;
            for (unsigned w = 1; w < kWays; ++w) {
                if (lru[set * kWays + w] < lru[set * kWays + victim]) {
                    victim = w;
                }
            }
            tag[set * kWays + victim] = line;
            lru[set * kWays + victim] = i;
            acc += mem[(line * 64 + (x & 63)) & (mem.size() - 1)];
        }
        ring[i & 127] = ring[(i - (x & 15)) & 127] + acc;
    }
    return acc + ring[5];
}

} // namespace

double
probeSec(unsigned threads)
{
    std::vector<double> secs(threads, 0.0);
    auto one = [&](unsigned t) {
        double t0 = nowSec();
        g_sink.fetch_add(kernel(), std::memory_order_relaxed);
        secs[t] = nowSec() - t0;
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) {
        pool.emplace_back(one, t);
    }
    one(0);
    for (std::thread& th : pool) {
        th.join();
    }
    double sum = 0.0;
    for (double s : secs) {
        sum += s;
    }
    return sum / threads;
}

} // namespace perfbench
