/**
 * @file
 * The sparse simulated disk, file system, buffer cache, vnode pager,
 * memory-mapped files and the Mach read() emulation with its object
 * cache.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fs/buffer_cache.hh"
#include "fs/simfs.hh"
#include "kern/kernel.hh"
#include "sim/fault_inject.hh"
#include "test_util.hh"
#include "vm/vm_object.hh"

namespace mach
{
namespace
{

TEST(SimFs, CreateWriteRead)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 8 << 20);
    SimFs fs(disk);

    FileId f = fs.create("hello");
    EXPECT_EQ(fs.lookup("hello"), f);
    EXPECT_EQ(fs.lookup("absent"), kNoFile);
    EXPECT_EQ(fs.size(f), 0u);

    auto data = test::pattern(10000);
    fs.write(f, 0, data.data(), data.size());
    EXPECT_EQ(fs.size(f), 10000u);

    std::vector<std::uint8_t> out(10000);
    EXPECT_EQ(fs.read(f, 0, out.data(), out.size()), 10000u);
    EXPECT_EQ(out, data);

    // Reads past EOF are short.
    EXPECT_EQ(fs.read(f, 9000, out.data(), 5000), 1000u);
    EXPECT_EQ(fs.read(f, 20000, out.data(), 100), 0u);
}

TEST(SimFs, SparseWriteAndTruncate)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 8 << 20);
    SimFs fs(disk);

    FileId f = fs.create("sparse");
    std::uint8_t b = 0xaa;
    fs.write(f, 100000, &b, 1);
    EXPECT_EQ(fs.size(f), 100001u);

    fs.truncate(f, 200000);
    EXPECT_EQ(fs.size(f), 200000u);
    std::uint8_t out = 0xff;
    fs.read(f, 150000, &out, 1);
    EXPECT_EQ(out, 0);

    // Recreating truncates.
    fs.create("sparse");
    EXPECT_EQ(fs.size(f), 0u);
}

TEST(SimFs, RemoveFreesBlocksForReuse)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 1 << 20);
    SimFs fs(disk);

    // Fill most of the disk, remove, and fill again: must not run
    // out if blocks are recycled.
    auto data = test::pattern(700 << 10);
    for (int round = 0; round < 3; ++round) {
        FileId f = fs.create("big");
        fs.write(f, 0, data.data(), data.size());
        fs.remove("big");
    }
    SUCCEED();
}

/** The disk's store chunk: writes that cross it exercise two chunks. */
constexpr std::uint64_t kDiskChunk = 64 << 10;

TEST(SimDisk, NeverWrittenBytesReadAsZero)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 1 << 20);
    EXPECT_EQ(disk.capacity(), 1u << 20);
    EXPECT_EQ(disk.residentBytes(), 0u);

    std::vector<std::uint8_t> out(3 * kDiskChunk, 0xff);
    ASSERT_EQ(disk.read(0, out.data(), out.size()), PagerResult::Ok);
    EXPECT_EQ(out, std::vector<std::uint8_t>(out.size(), 0));
    EXPECT_EQ(disk.residentBytes(), 0u);

    // Bytes around and past the last write, in its chunk and beyond,
    // still read as zero; the write itself allocated one chunk.
    auto data = test::pattern(100, 4);
    ASSERT_EQ(disk.write(kDiskChunk + 10, data.data(), data.size()),
              PagerResult::Ok);
    EXPECT_EQ(disk.residentBytes(), kDiskChunk);
    std::fill(out.begin(), out.end(), 0xff);
    ASSERT_EQ(disk.read(0, out.data(), out.size()), PagerResult::Ok);
    for (std::uint64_t i = 0; i < out.size(); ++i) {
        std::uint8_t want = i >= kDiskChunk + 10 && i < kDiskChunk + 110
            ? data[i - kDiskChunk - 10] : 0;
        ASSERT_EQ(out[i], want) << "byte " << i;
    }
    std::uint8_t last = 0xff;
    ASSERT_EQ(disk.read(disk.capacity() - 1, &last, 1), PagerResult::Ok);
    EXPECT_EQ(last, 0);
}

TEST(SimDisk, WriteStraddlingChunksReadsBackIntact)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 1 << 20);

    auto data = test::pattern(kDiskChunk + 8192, 5);
    std::uint64_t at = 2 * kDiskChunk - 4096;  // spans three chunks
    ASSERT_EQ(disk.write(at, data.data(), data.size()), PagerResult::Ok);
    EXPECT_EQ(disk.residentBytes(), 3 * kDiskChunk);

    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(disk.read(at, out.data(), out.size()), PagerResult::Ok);
    EXPECT_EQ(out, data);
    // A read of just the bytes on either side of one boundary.
    std::uint8_t pair[2] = {};
    ASSERT_EQ(disk.read(2 * kDiskChunk - 1, pair, 2), PagerResult::Ok);
    EXPECT_EQ(pair[0], data[4095]);
    EXPECT_EQ(pair[1], data[4096]);
    EXPECT_EQ(disk.bytesTransferred(), data.size() * 2 + 2);
}

TEST(SimDisk, FailedWriteAllocatesNothingAndChangesNothing)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 1 << 20);
    auto old_data = test::pattern(4096, 6);
    ASSERT_EQ(disk.write(0, old_data.data(), old_data.size()),
              PagerResult::Ok);
    ASSERT_EQ(disk.residentBytes(), kDiskChunk);

    FaultPlan plan;
    plan.writeErrorRate = 1.0;
    plan.permanentFraction = 1.0;
    FaultInjector inj(plan);
    disk.setFaultInjector(&inj);
    auto new_data = test::pattern(2 * kDiskChunk, 7);
    // Over written bytes and into a chunk never written.
    EXPECT_EQ(disk.write(0, new_data.data(), new_data.size()),
              PagerResult::PermanentError);
    EXPECT_EQ(disk.writeAsync(0, new_data.data(), new_data.size()),
              PagerResult::PermanentError);
    EXPECT_EQ(disk.ioErrors(), 2u);
    EXPECT_EQ(disk.residentBytes(), kDiskChunk);

    disk.setFaultInjector(nullptr);
    std::vector<std::uint8_t> out(new_data.size());
    ASSERT_EQ(disk.read(0, out.data(), out.size()), PagerResult::Ok);
    std::vector<std::uint8_t> want(out.size(), 0);
    std::copy(old_data.begin(), old_data.end(), want.begin());
    EXPECT_EQ(out, want);
    EXPECT_EQ(disk.residentBytes(), kDiskChunk);
}

TEST(SimDiskDeathTest, AccessPastCapacityPanics)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 1 << 20);
    std::uint8_t b = 0;
    EXPECT_DEATH(disk.read(disk.capacity(), &b, 1), "beyond capacity");
    EXPECT_DEATH(disk.write(disk.capacity() - 1, &b, 2),
                 "beyond capacity");
    EXPECT_DEATH(disk.read(~std::uint64_t(0), &b, 2), "beyond capacity");
}

TEST(BufferCache, HitAvoidsDisk)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 8 << 20);
    SimFs fs(disk);
    BufferCache cache(fs, m.clock(), spec.costs, 16);

    FileId f = fs.create("f");
    auto data = test::pattern(SimFs::kBlockSize * 2);
    fs.write(f, 0, data.data(), data.size());

    std::vector<std::uint8_t> out(data.size());
    std::uint64_t disk_reads0 = disk.readOps();
    cache.read(f, 0, out.data(), out.size());
    EXPECT_EQ(out, data);
    std::uint64_t miss_reads = disk.readOps() - disk_reads0;
    EXPECT_EQ(miss_reads, 2u);
    EXPECT_EQ(cache.misses(), 2u);

    // Second read: all hits, no disk traffic.
    disk_reads0 = disk.readOps();
    cache.read(f, 0, out.data(), out.size());
    EXPECT_EQ(disk.readOps(), disk_reads0);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(BufferCache, LruEvictionWhenFull)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 8 << 20);
    SimFs fs(disk);
    BufferCache cache(fs, m.clock(), spec.costs, 4);

    FileId f = fs.create("f");
    auto data = test::pattern(SimFs::kBlockSize * 8);
    fs.write(f, 0, data.data(), data.size());

    // Stream 8 blocks through a 4-buffer cache twice: second pass
    // still misses everything (classic too-small-cache behaviour,
    // the 4.3bsd problem from Table 7-1).
    std::vector<std::uint8_t> out(data.size());
    cache.read(f, 0, out.data(), out.size());
    std::uint64_t misses_after_first = cache.misses();
    cache.read(f, 0, out.data(), out.size());
    EXPECT_EQ(cache.misses(), misses_after_first + 8);
}

TEST(BufferCache, WriteThenReadBack)
{
    MachineSpec spec = test::tinySpec(ArchType::Vax);
    Machine m(spec);
    SimDisk disk(m.clock(), spec.costs, 8 << 20);
    SimFs fs(disk);
    BufferCache cache(fs, m.clock(), spec.costs, 8);

    FileId f = fs.create("f");
    auto data = test::pattern(9000, 2);
    cache.write(f, 0, data.data(), data.size());
    std::vector<std::uint8_t> out(9000);
    EXPECT_EQ(cache.read(f, 0, out.data(), out.size()), 9000u);
    EXPECT_EQ(out, data);
    // Write-behind: the disk only sees the data after a sync.
    cache.sync();
    std::vector<std::uint8_t> direct(9000);
    EXPECT_EQ(fs.read(f, 0, direct.data(), direct.size()), 9000u);
    EXPECT_EQ(direct, data);
}

class MappedFileTest : public ::testing::TestWithParam<ArchType>
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(GetParam(), 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        task = kernel->taskCreate();
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *task = nullptr;
};

TEST_P(MappedFileTest, MapAndReadThroughFaults)
{
    auto data = test::pattern(3 * page + 100, 12);
    kernel->createFile("data", data.data(), data.size());

    VmOffset addr = 0;
    VmSize size = 0;
    ASSERT_EQ(kernel->mapFile(*task, "data", &addr, &size),
              KernReturn::Success);
    EXPECT_EQ(size, kernel->vm->pageRound(data.size()));

    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(kernel->taskRead(*task, addr, out.data(), out.size()),
              KernReturn::Success);
    EXPECT_EQ(out, data);
    EXPECT_GT(kernel->vm->stats.pageins, 0u);

    // Bytes past EOF inside the last page read as zero.
    std::uint8_t tail = 0xff;
    ASSERT_EQ(kernel->taskRead(*task, addr + data.size(), &tail, 1),
              KernReturn::Success);
    EXPECT_EQ(tail, 0);
}

TEST_P(MappedFileTest, TwoMappingsShareTheObject)
{
    auto data = test::pattern(2 * page, 13);
    kernel->createFile("shared", data.data(), data.size());

    Task *other = kernel->taskCreate();
    VmOffset a1 = 0, a2 = 0;
    VmSize s1 = 0, s2 = 0;
    ASSERT_EQ(kernel->mapFile(*task, "shared", &a1, &s1),
              KernReturn::Success);
    ASSERT_EQ(kernel->mapFile(*other, "shared", &a2, &s2),
              KernReturn::Success);

    // Writes through one mapping are visible through the other
    // (same memory object).
    std::uint32_t magic = 0xfeedface;
    ASSERT_EQ(kernel->taskWrite(*task, a1, &magic, sizeof(magic)),
              KernReturn::Success);
    std::uint32_t seen = 0;
    ASSERT_EQ(kernel->taskRead(*other, a2, &seen, sizeof(seen)),
              KernReturn::Success);
    EXPECT_EQ(seen, magic);

    kernel->taskTerminate(other);
}

TEST_P(MappedFileTest, DirtyMappedPagesReachTheFile)
{
    auto data = test::pattern(2 * page, 14);
    kernel->createFile("wb", data.data(), data.size());

    VmOffset addr = 0;
    VmSize size = 0;
    ASSERT_EQ(kernel->mapFile(*task, "wb", &addr, &size),
              KernReturn::Success);
    std::uint32_t magic = 0xabcd1234;
    ASSERT_EQ(kernel->taskWrite(*task, addr + 64, &magic,
                                sizeof(magic)),
              KernReturn::Success);

    // Unmap and drop the cached object: dirty pages must be written
    // back to the file system.
    ASSERT_EQ(task->map().deallocate(addr, size), KernReturn::Success);
    kernel->vm->flushCache();

    std::uint32_t seen = 0;
    kernel->fs.read(kernel->fs.lookup("wb"), 64, &seen, sizeof(seen));
    EXPECT_EQ(seen, magic);
}

TEST_P(MappedFileTest, FileReadUsesObjectCache)
{
    auto data = test::pattern(8 * page, 15);
    kernel->createFile("cached", data.data(), data.size());

    std::vector<std::uint8_t> out(data.size());
    VmSize got = 0;
    SimTime t0 = kernel->now();
    ASSERT_EQ(kernel->fileRead("cached", 0, out.data(), out.size(),
                               &got),
              KernReturn::Success);
    SimTime first = kernel->now() - t0;
    ASSERT_EQ(got, data.size());
    EXPECT_EQ(out, data);

    std::uint64_t disk_reads = kernel->disk.readOps();
    t0 = kernel->now();
    ASSERT_EQ(kernel->fileRead("cached", 0, out.data(), out.size(),
                               &got),
              KernReturn::Success);
    SimTime second = kernel->now() - t0;
    EXPECT_EQ(out, data);
    // Second read: no disk I/O (object cache) and much faster.
    EXPECT_EQ(kernel->disk.readOps(), disk_reads);
    EXPECT_LT(second * 2, first);
}

TEST_P(MappedFileTest, FileWriteIsVisibleToSubsequentMaps)
{
    auto data = test::pattern(page, 16);
    kernel->createFile("w", data.data(), data.size());
    std::uint32_t magic = 0x55aa55aa;
    ASSERT_EQ(kernel->fileWrite("w", 16, &magic, sizeof(magic)),
              KernReturn::Success);

    VmOffset addr = 0;
    VmSize size = 0;
    ASSERT_EQ(kernel->mapFile(*task, "w", &addr, &size),
              KernReturn::Success);
    std::uint32_t seen = 0;
    ASSERT_EQ(kernel->taskRead(*task, addr + 16, &seen, sizeof(seen)),
              KernReturn::Success);
    EXPECT_EQ(seen, magic);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, MappedFileTest,
    ::testing::ValuesIn(test::allArchs()),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
