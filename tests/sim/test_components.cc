/**
 * @file
 * Unit tests for the component library: devices, memories, connections,
 * stream FIFOs, and the extensible factory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/component.hh"

namespace {

using namespace eq::sim;

TEST(DeviceTest, AcquirePicksEarliestFreeQueue)
{
    Device d("dev", 2);
    EXPECT_EQ(d.acquire(0, 4), 0u); // queue 0: free at 4
    EXPECT_EQ(d.acquire(0, 4), 0u); // queue 1: free at 4
    EXPECT_EQ(d.acquire(0, 4), 4u); // both busy: stall until 4
    EXPECT_EQ(d.acquire(10, 1), 10u); // later request, all free again
}

TEST(DeviceTest, SingleQueueSerializes)
{
    Device d("dev", 1);
    EXPECT_EQ(d.acquire(0, 3), 0u);
    EXPECT_EQ(d.acquire(1, 3), 3u);
    EXPECT_EQ(d.acquire(2, 3), 6u);
}

TEST(MemoryTest, OccupancyScalesWithWords)
{
    Memory m("m", "SRAM", {1024}, 32, 4, /*cycles_per_word=*/1);
    EXPECT_EQ(m.getReadOrWriteCycles(false, 1), 1u);
    EXPECT_EQ(m.getReadOrWriteCycles(true, 16), 16u);
    m.recordAccess(false, 64);
    m.recordAccess(true, 32);
    m.recordAccess(false, 1);
    EXPECT_EQ(m.bytesRead(), 65);
    EXPECT_EQ(m.bytesWritten(), 32);
}

TEST(ComponentTest, HierarchyAndPaths)
{
    Component root("accel");
    Memory m("m", "SRAM", {64}, 32, 1, 1);
    Component pe("pe_old_name");
    root.addChild("SRAM", &m);
    root.addChild("PE0", &pe);
    EXPECT_EQ(root.child("SRAM"), &m);
    EXPECT_EQ(root.child("nope"), nullptr);
    EXPECT_EQ(m.name(), "SRAM"); // addChild renames
    EXPECT_EQ(m.path(), "accel.SRAM");
    EXPECT_EQ(pe.parent(), &root);
}

TEST(ConnectionTest, TransferCyclesFromBandwidth)
{
    Connection c("c", "Streaming", 32);
    EXPECT_EQ(c.transferCycles(32), 1u);
    EXPECT_EQ(c.transferCycles(33), 2u);
    EXPECT_EQ(c.transferCycles(1), 1u);
    Connection unlimited("u", "Streaming", 0);
    EXPECT_TRUE(unlimited.unlimited());
    EXPECT_EQ(unlimited.transferCycles(1 << 20), 0u);
}

TEST(ConnectionTest, StreamingHasIndependentChannels)
{
    Connection c("c", "Streaming", 4);
    EXPECT_EQ(c.acquireChannel(true, 0, 4), 0u);
    // Write channel is independent: also starts at 0.
    EXPECT_EQ(c.acquireChannel(false, 0, 4), 0u);
    // Second read serializes behind the first.
    EXPECT_EQ(c.acquireChannel(true, 0, 4), 4u);
}

TEST(ConnectionTest, WindowLocksExclusively)
{
    Connection c("c", "Window", 4);
    EXPECT_EQ(c.acquireChannel(true, 0, 4), 0u);
    // Window: the write is blocked by the in-flight read.
    EXPECT_EQ(c.acquireChannel(false, 0, 4), 4u);
    EXPECT_EQ(c.acquireChannel(true, 0, 4), 8u);
}

TEST(ConnectionTest, TransferAccounting)
{
    Connection c("c", "Streaming", 8);
    c.recordTransfer(true, 0, 2, 16);
    c.recordTransfer(false, 2, 4, 16);
    EXPECT_EQ(c.readBytes(), 16);
    EXPECT_EQ(c.writeBytes(), 16);
    EXPECT_EQ(c.maxRate(), 8.0);
    EXPECT_EQ(c.cyclesAtMaxRate(true), 2u);
    EXPECT_EQ(c.cyclesAtMaxRate(false), 2u);
}

/** One recorded transfer, as the per-transfer log used to keep it. */
struct Transfer {
    bool isRead;
    Cycles start, end;
    int64_t bytes;
};

/** The list-based peak statistics the running ones replace: the max
 *  rate over every transfer, then the cycles each direction spent
 *  within 0.1% of it. */
void
peakFromLog(const std::vector<Transfer> &log, double *max_bw,
            Cycles *read_at_peak, Cycles *write_at_peak)
{
    *max_bw = 0.0;
    for (const Transfer &iv : log) {
        double rate =
            iv.bytes / std::max<double>(1.0, double(iv.end - iv.start));
        *max_bw = std::max(*max_bw, rate);
    }
    *read_at_peak = *write_at_peak = 0;
    for (const Transfer &iv : log) {
        double rate =
            iv.bytes / std::max<double>(1.0, double(iv.end - iv.start));
        if (*max_bw > 0 && rate >= *max_bw * 0.999)
            (iv.isRead ? *read_at_peak : *write_at_peak) +=
                iv.end - iv.start;
    }
}

TEST(ConnectionTest, RunningPeakStatsMatchTheTransferLog)
{
    std::mt19937_64 rng(20221001);
    for (int round = 0; round < 400; ++round) {
        Connection c("c", "Streaming", 8);
        std::vector<Transfer> log;
        // Few distinct sizes and durations, so equal rates, rates
        // within 0.1% of each other (1000 vs 999 bytes) and a rising
        // max all happen; some rounds have no traffic at all.
        const int64_t sizes[] = {0, 7, 8, 16, 999, 1000, 2000, 4096};
        int n = static_cast<int>(rng() % 40);
        Cycles now = 0;
        for (int i = 0; i < n; ++i) {
            Transfer t;
            t.isRead = rng() % 2;
            t.start = now + rng() % 3;
            t.end = t.start + rng() % 9;
            t.bytes = sizes[rng() % 8];
            now = t.start;
            c.recordTransfer(t.isRead, t.start, t.end, t.bytes);
            log.push_back(t);
        }
        double max_bw;
        Cycles read_at_peak, write_at_peak;
        peakFromLog(log, &max_bw, &read_at_peak, &write_at_peak);
        ASSERT_EQ(c.maxRate(), max_bw) << "round " << round;
        ASSERT_EQ(c.cyclesAtMaxRate(true), read_at_peak) << "round " << round;
        ASSERT_EQ(c.cyclesAtMaxRate(false), write_at_peak)
            << "round " << round;
    }
}

TEST(StreamFifoTest, AvailabilityRespectsReadyTimes)
{
    StreamFifo f("s", 32);
    f.push(1, 4);
    f.push(2, 4);
    f.push(3, 8);
    EXPECT_EQ(f.available(0), 0u);
    EXPECT_EQ(f.available(4), 2u);
    EXPECT_EQ(f.available(8), 3u);
    EXPECT_EQ(f.readyTime(2), 4u);
    EXPECT_EQ(f.readyTime(3), 8u);
    EXPECT_EQ(f.readyTime(4), StreamFifo::kNoReadyTime);
    auto vals = f.pop(2);
    EXPECT_EQ(vals, (std::vector<int64_t>{1, 2}));
    EXPECT_EQ(f.depth(), 1u);
    EXPECT_EQ(f.totalPushed(), 3u);
    EXPECT_EQ(f.totalPopped(), 2u);
}

TEST(ComponentFactoryTest, BuiltinsAndCustomKinds)
{
    ComponentFactory factory;
    EXPECT_TRUE(factory.hasMemoryKind("SRAM"));
    EXPECT_TRUE(factory.hasMemoryKind("Register"));
    EXPECT_TRUE(factory.hasMemoryKind("DRAM"));
    EXPECT_FALSE(factory.hasMemoryKind("Cache"));

    auto sram = factory.makeMemory("SRAM", "s", {64}, 32, 4);
    EXPECT_EQ(sram->kind(), "SRAM");
    EXPECT_EQ(sram->numQueues(), 4u);
    EXPECT_EQ(sram->getReadOrWriteCycles(false, 2), 2u);

    auto reg = factory.makeMemory("Register", "r", {4}, 32, 1);
    EXPECT_EQ(reg->getReadOrWriteCycles(false, 100), 0u);

    auto dram = factory.makeMemory("DRAM", "d", {1 << 20}, 32, 1);
    EXPECT_EQ(dram->getReadOrWriteCycles(true, 2), 8u);

    // Extend the library with a Cache kind (the paper's §IV-D example).
    class CacheMem : public Memory {
      public:
        CacheMem(std::string name, std::vector<int64_t> shape,
                 unsigned bits, unsigned banks)
            : Memory(std::move(name), "Cache", std::move(shape), bits,
                     banks, 1)
        {}
        Cycles
        getReadOrWriteCycles(bool, int64_t words) override
        {
            // Toy model: every 4th access misses (10-cycle penalty).
            Cycles total = 0;
            for (int64_t i = 0; i < words; ++i)
                total += (++_accesses % 4 == 0) ? 10 : 1;
            return total;
        }

      private:
        uint64_t _accesses = 0;
    };
    factory.registerMemoryKind(
        "Cache", [](const std::string &name, std::vector<int64_t> shape,
                    unsigned bits, unsigned banks) {
            return std::make_unique<CacheMem>(name, std::move(shape), bits,
                                              banks);
        });
    EXPECT_TRUE(factory.hasMemoryKind("Cache"));
    auto cache = factory.makeMemory("Cache", "c", {256}, 32, 1);
    EXPECT_EQ(cache->getReadOrWriteCycles(false, 4), 1u + 1u + 1u + 10u);
}

} // namespace
