#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "mem/nvm_device.hh"

namespace amnt::mem
{
namespace
{

TEST(NvmDevice, UnwrittenBlocksReadZero)
{
    NvmDevice nvm(1 << 20);
    Block b;
    b.fill(0xff);
    nvm.readBlock(0x100, b);
    for (auto byte : b)
        EXPECT_EQ(byte, 0);
}

TEST(NvmDevice, WriteReadRoundTrip)
{
    NvmDevice nvm(1 << 20);
    Block in;
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i);
    nvm.writeBlock(0x40, in);
    Block out;
    nvm.readBlock(0x40, out);
    EXPECT_EQ(in, out);
}

TEST(NvmDevice, BlockAlignmentSharesStorage)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[0] = 0xaa;
    nvm.writeBlock(0x80, in);
    Block out;
    nvm.readBlock(0x80 + 17, out); // same block, unaligned byte addr
    EXPECT_EQ(out[0], 0xaa);
}

TEST(NvmDevice, TrafficCounting)
{
    NvmDevice nvm(1 << 20);
    Block b{};
    nvm.writeBlock(0, b);
    nvm.readBlock(0, b);
    nvm.touchRead(64);
    nvm.touchWrite(64);
    EXPECT_EQ(nvm.reads(), 2ull);
    EXPECT_EQ(nvm.writes(), 2ull);
}

TEST(NvmDevice, PeekDoesNotCount)
{
    NvmDevice nvm(1 << 20);
    Block b{};
    nvm.peek(0, b);
    EXPECT_EQ(nvm.reads(), 0ull);
}

TEST(NvmDevice, ContentsSurviveCrash)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[5] = 0x55;
    nvm.writeBlock(0x1000, in);
    nvm.crash();
    Block out;
    nvm.readBlock(0x1000, out);
    EXPECT_EQ(out[5], 0x55);
}

TEST(NvmDevice, TamperFlipsBits)
{
    NvmDevice nvm(1 << 20);
    Block in{};
    in[3] = 0x0f;
    nvm.writeBlock(0, in);
    EXPECT_TRUE(nvm.tamper(0, 3, 0xff));
    Block out;
    nvm.readBlock(0, out);
    EXPECT_EQ(out[3], 0xf0);
}

TEST(NvmDevice, TamperUnwrittenBlock)
{
    NvmDevice nvm(1 << 20);
    EXPECT_FALSE(nvm.tamper(0x200, 0, 0x01));
    Block out;
    nvm.readBlock(0x200, out);
    EXPECT_EQ(out[0], 0x01);
}

TEST(NvmDevice, ForEachBlockInRange)
{
    NvmDevice nvm(1 << 20);
    Block b{};
    nvm.writeBlock(0x000, b);
    nvm.writeBlock(0x100, b);
    nvm.writeBlock(0x800, b);
    int in_range = 0;
    nvm.forEachBlockIn(0x100, 0x800,
                       [&](Addr, const Block &) { ++in_range; });
    EXPECT_EQ(in_range, 1);
    EXPECT_EQ(nvm.blocksTouched(), 3ull);
}

TEST(NvmDevice, MutationsCountContentChangesOnly)
{
    NvmDevice nvm(1 << 20);
    EXPECT_EQ(nvm.mutations(), 0ull);
    Block b{};
    b[1] = 0x11;
    nvm.writeBlock(0x40, b);
    EXPECT_EQ(nvm.mutations(), 1ull);
    nvm.writeBlock(0x40, b); // same bytes again still counts
    EXPECT_EQ(nvm.mutations(), 2ull);
    EXPECT_TRUE(nvm.tamper(0x40, 1, 0x01));
    EXPECT_EQ(nvm.mutations(), 3ull);
    EXPECT_FALSE(nvm.tamper(0x400, 0, 0x80)); // never-written block
    EXPECT_EQ(nvm.mutations(), 4ull);

    // Traffic-only and read-only paths change no contents.
    Block out;
    nvm.touchWrite(0x80);
    nvm.touchRead(0x80);
    nvm.peek(0x40, out);
    nvm.readBlock(0x40, out);
    nvm.forEachBlockIn(0, 1 << 20, [](Addr, const Block &) {});
    nvm.crash();
    EXPECT_EQ(nvm.mutations(), 4ull);
}

TEST(NvmDevice, SuppressedWriteDoesNotMutate)
{
    NvmDevice nvm(1 << 20);
    fault::FaultDomain domain;
    nvm.setFaultDomain(&domain);
    domain.arm(1);
    Block b{};
    b[0] = 0x5a;
    nvm.writeBlock(0x40, b); // boundary 0 lands
    EXPECT_EQ(nvm.mutations(), 1ull);
    EXPECT_THROW(nvm.writeBlock(0x80, b), fault::CrashInjected);
    EXPECT_EQ(nvm.mutations(), 1ull);
    Block out;
    nvm.peek(0x80, out);
    EXPECT_EQ(out, Block{});
}

/**
 * Records each notification together with what the device held at
 * that moment: the watched block's bytes and the mutation count.
 */
struct RecordingWriter final : DeferringWriter
{
    explicit RecordingWriter(NvmDevice &d, Addr w = 0x40)
        : nvm(d), watched(w)
    {
    }

    void
    beforeForeignChange() override
    {
        ++calls;
        nvm.peek(watched, seen);
        mutationsSeen = nvm.mutations();
        stillAttached = nvm.deferringWriter() != nullptr;
    }

    NvmDevice &nvm;
    Addr watched;
    unsigned calls = 0;
    Block seen{};
    std::uint64_t mutationsSeen = 0;
    bool stillAttached = false;
};

Block
byteBlock(std::uint8_t v)
{
    Block b{};
    b[3] = v;
    return b;
}

TEST(NvmDevice, DeferringWriterAttachesOnce)
{
    NvmDevice nvm(1 << 20);
    RecordingWriter a(nvm), b(nvm);
    EXPECT_EQ(nvm.deferringWriter(), nullptr);
    EXPECT_TRUE(nvm.attachDeferringWriter(a));
    EXPECT_FALSE(nvm.attachDeferringWriter(b));
    EXPECT_EQ(nvm.deferringWriter(), &a);
    nvm.detachDeferringWriter(b); // not attached: no effect
    EXPECT_EQ(nvm.deferringWriter(), &a);
    nvm.detachDeferringWriter(a);
    EXPECT_EQ(nvm.deferringWriter(), nullptr);
    // Detached, a foreign change tells nobody.
    nvm.writeBlock(0x40, byteBlock(1));
    EXPECT_TRUE(nvm.tamper(0x40, 0, 0x10));
    EXPECT_EQ(a.calls, 0u);
    EXPECT_EQ(b.calls, 0u);
}

TEST(NvmDevice, TamperNotifiesBeforeTheBytesChange)
{
    NvmDevice nvm(1 << 20);
    RecordingWriter w(nvm);
    ASSERT_TRUE(nvm.attachDeferringWriter(w));
    nvm.writeBlockAs(&w, 0x40, byteBlock(7));
    EXPECT_TRUE(nvm.tamper(0x40, 3, 0x01));
    EXPECT_EQ(w.calls, 1u);
    EXPECT_EQ(w.seen, byteBlock(7));
    EXPECT_EQ(w.mutationsSeen, 1ull);
    EXPECT_FALSE(w.stillAttached);
    EXPECT_EQ(nvm.deferringWriter(), nullptr);
    // Told once: later changes of any kind are not reported again.
    EXPECT_TRUE(nvm.tamper(0x40, 3, 0x01));
    nvm.writeBlock(0x40, byteBlock(9));
    EXPECT_EQ(w.calls, 1u);
}

TEST(NvmDevice, TamperOfUnwrittenBlockNotifiesBeforeItLands)
{
    NvmDevice nvm(1 << 20);
    RecordingWriter w(nvm, 0x400);
    ASSERT_TRUE(nvm.attachDeferringWriter(w));
    EXPECT_FALSE(nvm.tamper(0x400, 0, 0x80));
    EXPECT_EQ(w.calls, 1u);
    EXPECT_EQ(w.seen, Block{});
    EXPECT_EQ(w.mutationsSeen, 0ull);
}

TEST(NvmDevice, OutsideWriteNotifiesBeforeTheBytesChange)
{
    for (bool anonymous : {true, false}) {
        NvmDevice nvm(1 << 20);
        RecordingWriter w(nvm), other(nvm);
        ASSERT_TRUE(nvm.attachDeferringWriter(w));
        nvm.writeBlockAs(&w, 0x40, byteBlock(3));
        if (anonymous)
            nvm.writeBlock(0x40, byteBlock(4));
        else
            nvm.writeBlockAs(&other, 0x40, byteBlock(4));
        EXPECT_EQ(w.calls, 1u);
        EXPECT_EQ(w.seen, byteBlock(3));
        EXPECT_EQ(w.mutationsSeen, 1ull);
        EXPECT_FALSE(w.stillAttached);
        EXPECT_EQ(other.calls, 0u);
        Block out;
        nvm.peek(0x40, out);
        EXPECT_EQ(out, byteBlock(4));
    }
}

TEST(NvmDevice, OwnWritesTrafficAndReadsDoNotNotify)
{
    NvmDevice nvm(1 << 20);
    RecordingWriter w(nvm);
    ASSERT_TRUE(nvm.attachDeferringWriter(w));
    Block out;
    for (Addr a = 0; a < 0x400; a += kBlockSize) {
        nvm.writeBlockAs(&w, a, byteBlock(static_cast<std::uint8_t>(a)));
        nvm.readBlock(a, out);
        nvm.peek(a, out);
        nvm.touchRead(a);
        nvm.touchWrite(a);
    }
    nvm.forEachBlockIn(0, 1 << 20, [](Addr, const Block &) {});
    nvm.crash();
    EXPECT_EQ(w.calls, 0u);
    EXPECT_EQ(nvm.deferringWriter(), &w);
}

TEST(NvmDevice, CrashSuppressedOutsideWriteDoesNotNotify)
{
    NvmDevice nvm(1 << 20);
    RecordingWriter w(nvm);
    ASSERT_TRUE(nvm.attachDeferringWriter(w));
    fault::FaultDomain domain;
    nvm.setFaultDomain(&domain);
    domain.arm(1);
    nvm.writeBlockAs(&w, 0x40, byteBlock(5)); // boundary 0 lands
    EXPECT_THROW(nvm.writeBlock(0x40, byteBlock(6)),
                 fault::CrashInjected);
    EXPECT_EQ(w.calls, 0u);
    EXPECT_EQ(nvm.deferringWriter(), &w);
}

} // namespace
} // namespace amnt::mem
