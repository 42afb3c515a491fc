/** @file Unit tests for the MissMap. */

#include <gtest/gtest.h>

#include "dramcache/missmap.hh"

namespace fpc {
namespace {

MissMap::Config
tinyConfig()
{
    MissMap::Config cfg;
    cfg.entries = 32;
    cfg.assoc = 4;
    return cfg;
}

TEST(MissMap, AbsentByDefault)
{
    MissMap mm(tinyConfig());
    EXPECT_FALSE(mm.present(0x1000));
}

TEST(MissMap, SetThenPresent)
{
    MissMap mm(tinyConfig());
    MissMap::Victim v;
    mm.setBit(0x1000, v);
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(mm.present(0x1000));
    // Other blocks of the segment remain absent.
    EXPECT_FALSE(mm.present(0x1040));
}

TEST(MissMap, ClearBit)
{
    MissMap mm(tinyConfig());
    MissMap::Victim v;
    mm.setBit(0x1000, v);
    mm.setBit(0x1040, v);
    mm.clearBit(0x1000);
    EXPECT_FALSE(mm.present(0x1000));
    EXPECT_TRUE(mm.present(0x1040));
}

TEST(MissMap, EmptyEntryFreed)
{
    MissMap mm(tinyConfig());
    MissMap::Victim v;
    mm.setBit(0x1000, v);
    mm.clearBit(0x1000);
    // Re-setting must not report the segment as victim of itself;
    // the freed entry is reused silently.
    mm.setBit(0x1000, v);
    EXPECT_FALSE(v.valid);
}

TEST(MissMap, SegmentSharing)
{
    MissMap mm(tinyConfig());
    MissMap::Victim v;
    // 4KB segment = 64 blocks; both blocks in one entry.
    mm.setBit(0x2000, v);
    mm.setBit(0x2fc0, v);
    EXPECT_TRUE(mm.present(0x2000));
    EXPECT_TRUE(mm.present(0x2fc0));
}

TEST(MissMap, EvictionReturnsTrackedBlocks)
{
    MissMap mm(tinyConfig());
    MissMap::Victim v;
    mm.setBit(0x0, v);
    mm.setBit(0x40, v);
    // Thrash until that segment is displaced.
    std::uint64_t evictions = 0;
    for (Addr seg = 1; seg < 4096 && !evictions; ++seg) {
        mm.setBit(seg * 4096, v);
        if (v.valid && v.segmentId == 0) {
            EXPECT_EQ(v.presentBlocks.count(), 2u);
            EXPECT_TRUE(v.presentBlocks.test(0));
            EXPECT_TRUE(v.presentBlocks.test(1));
            ++evictions;
        }
    }
    EXPECT_EQ(evictions, 1u);
    EXPECT_GT(mm.entryEvictions(), 0u);
    EXPECT_FALSE(mm.present(0x0));
}

TEST(MissMap, LruKeepsHotSegments)
{
    MissMap mm(tinyConfig());
    MissMap::Victim v;
    mm.setBit(0x0, v);
    for (unsigned i = 1; i < 500; ++i) {
        mm.setBit(0x0, v); // keep segment 0 hot
        mm.setBit(static_cast<Addr>(i) * 4096, v);
        EXPECT_TRUE(mm.present(0x0));
    }
}

TEST(MissMap, StorageMatchesTable4)
{
    // Table 4: 192K entries ~ 1.95MB.
    MissMap::Config cfg;
    cfg.entries = 192 * 1024;
    cfg.assoc = 24;
    MissMap mm(cfg);
    const double mb =
        static_cast<double>(mm.storageBits(40)) /
        (8.0 * 1024 * 1024);
    EXPECT_GT(mb, 1.5);
    EXPECT_LT(mb, 2.5);
}

} // namespace
} // namespace fpc
