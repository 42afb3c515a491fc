/** @file Unit tests for trace sources and the binary trace file. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mem/trace.hh"

namespace fpc {
namespace {

std::vector<TraceRecord>
makeRecords(unsigned n)
{
    std::vector<TraceRecord> v;
    for (unsigned i = 0; i < n; ++i) {
        TraceRecord r;
        r.computeGap = i;
        r.req.paddr = 0x1000 + i * 64;
        r.req.pc = 0x400000 + i * 4;
        r.req.op = (i % 3 == 0) ? MemOp::Write : MemOp::Read;
        v.push_back(r);
    }
    return v;
}

TEST(VectorTraceSource, SingleCoreSequential)
{
    VectorTraceSource src(makeRecords(5), 1);
    TraceRecord r;
    for (unsigned i = 0; i < 5; ++i) {
        ASSERT_TRUE(src.next(0, r));
        EXPECT_EQ(r.computeGap, i);
    }
    EXPECT_FALSE(src.next(0, r));
}

TEST(VectorTraceSource, TwoCoresPartition)
{
    VectorTraceSource src(makeRecords(6), 2);
    TraceRecord r;
    ASSERT_TRUE(src.next(0, r));
    EXPECT_EQ(r.computeGap, 0u);
    ASSERT_TRUE(src.next(0, r));
    EXPECT_EQ(r.computeGap, 2u);
    ASSERT_TRUE(src.next(1, r));
    EXPECT_EQ(r.computeGap, 1u);
    EXPECT_EQ(r.req.coreId, 1u);
}

TEST(TraceFile, RoundTrip)
{
    const std::string path = ::testing::TempDir() + "trace_rt.bin";
    std::vector<TraceRecord> recs = makeRecords(10);
    {
        TraceFileWriter w(path);
        for (const auto &r : recs)
            w.append(r);
        EXPECT_EQ(w.recordsWritten(), 10u);
    }
    TraceFileReader reader(path);
    TraceRecord r;
    for (unsigned i = 0; i < 10; ++i) {
        ASSERT_TRUE(reader.next(0, r));
        EXPECT_EQ(r.computeGap, recs[i].computeGap);
        EXPECT_EQ(r.req.paddr, recs[i].req.paddr);
        EXPECT_EQ(r.req.pc, recs[i].req.pc);
        EXPECT_EQ(r.req.op, recs[i].req.op);
    }
    EXPECT_FALSE(reader.next(0, r));
    std::remove(path.c_str());
}

TEST(TraceFile, MultiCoreDemux)
{
    const std::string path = ::testing::TempDir() + "trace_mc.bin";
    {
        TraceFileWriter w(path);
        for (unsigned i = 0; i < 8; ++i) {
            TraceRecord r;
            r.computeGap = i;
            r.req.coreId = static_cast<std::uint16_t>(i % 2);
            w.append(r);
        }
    }
    TraceFileReader reader(path);
    TraceRecord r;
    // Core 1 records are 1,3,5,7 in order.
    for (unsigned expect : {1u, 3u, 5u, 7u}) {
        ASSERT_TRUE(reader.next(1, r));
        EXPECT_EQ(r.computeGap, expect);
    }
    // Core 0 records buffered during demux are still available.
    for (unsigned expect : {0u, 2u, 4u, 6u}) {
        ASSERT_TRUE(reader.next(0, r));
        EXPECT_EQ(r.computeGap, expect);
    }
    std::remove(path.c_str());
}

TEST(TraceFileDeath, MissingFileIsAnError)
{
    // A missing trace file must be a hard error, never a silent
    // empty stream.
    EXPECT_EXIT(TraceFileReader reader(::testing::TempDir() +
                                       "no_such_trace.bin"),
                ::testing::ExitedWithCode(1),
                "cannot open trace file");
}

TEST(TraceFileDeath, TruncatedRecordIsAnError)
{
    const std::string path =
        ::testing::TempDir() + "trace_trunc.bin";
    {
        TraceFileWriter w(path);
        for (const auto &r : makeRecords(3))
            w.append(r);
    }
    // Chop the last record short: 3 records minus 7 bytes.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[3 * sizeof(TraceFileRecord)];
        ASSERT_EQ(std::fread(buf, 1, sizeof(buf), f),
                  sizeof(buf));
        std::fclose(f);
        f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(buf, 1, sizeof(buf) - 7, f);
        std::fclose(f);
    }
    EXPECT_EXIT(
        {
            TraceFileReader reader(path);
            TraceRecord rec;
            while (reader.next(0, rec)) {
            }
        },
        ::testing::ExitedWithCode(1), "truncated record");
    std::remove(path.c_str());
}

} // namespace
} // namespace fpc
