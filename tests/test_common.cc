/**
 * @file
 * Unit tests for src/common: hashing, RNG, saturating counters and
 * integer math.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/intmath.h"
#include "common/rng.h"
#include "common/sat_counter.h"
#include "common/types.h"

namespace udp {
namespace {

TEST(Mix64, IsDeterministic)
{
    EXPECT_EQ(mix64(12345), mix64(12345));
    EXPECT_EQ(hashCombine(1, 2), hashCombine(1, 2));
    EXPECT_EQ(hashCombine(1, 2, 3), hashCombine(1, 2, 3));
}

TEST(Mix64, SeparatesNearbyInputs)
{
    std::set<std::uint64_t> outs;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        outs.insert(mix64(i));
    }
    EXPECT_EQ(outs.size(), 10000u);
}

TEST(Mix64, OrderMatters)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        hits += r.chance(0.3);
    }
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    EXPECT_NE(r.next(), r.next());
}

TEST(SatCounter, SaturatesAtBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i) {
        c.increment();
    }
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isSaturated());
}

TEST(SatCounter, IsSetAboveMidpoint)
{
    SatCounter c(2, 2);
    EXPECT_TRUE(c.isSet());
    c.decrement();
    EXPECT_FALSE(c.isSet());
}

TEST(SignedSatCounter, RangeAndUpdate)
{
    SignedSatCounter c(3, 0);
    EXPECT_EQ(c.min(), -4);
    EXPECT_EQ(c.max(), 3);
    for (int i = 0; i < 10; ++i) {
        c.update(true);
    }
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.isSaturated());
    for (int i = 0; i < 20; ++i) {
        c.update(false);
    }
    EXPECT_EQ(c.value(), -4);
    EXPECT_TRUE(c.isSaturated());
}

TEST(SignedSatCounter, TakenIsSignBit)
{
    SignedSatCounter c(3, 0);
    EXPECT_TRUE(c.taken());
    c.update(false);
    EXPECT_FALSE(c.taken());
}

TEST(SignedSatCounter, WeakNearBoundary)
{
    SignedSatCounter c(3, 0);
    EXPECT_TRUE(c.isWeak());
    c.update(false);
    EXPECT_TRUE(c.isWeak());
    c.update(false);
    EXPECT_FALSE(c.isWeak());
}

TEST(IntMath, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(1024));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(1025));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(IntMath, Alignment)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignDown(128, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
}

TEST(Types, LineAndBlockHelpers)
{
    EXPECT_EQ(lineAddr(0x1000), 0x1000u);
    EXPECT_EQ(lineAddr(0x103f), 0x1000u);
    EXPECT_EQ(lineAddr(0x1040), 0x1040u);
    EXPECT_EQ(fetchBlockAddr(0x101f), 0x1000u);
    EXPECT_EQ(fetchBlockAddr(0x1020), 0x1020u);
}

} // namespace
} // namespace udp
