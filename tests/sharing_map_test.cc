/**
 * @file
 * Sharing-map tests (paper section 3.4): read/write sharing requires
 * "a map-like data structure which can be referenced by other
 * address maps" — and because sharing maps can be split and merged,
 * they never need to reference other sharing maps for full
 * task-to-task sharing.
 */

#include <gtest/gtest.h>

#include "kern/kernel.hh"
#include "test_util.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

class SharingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        kernel = std::make_unique<Kernel>(
            test::tinySpec(ArchType::Vax, 4));
        page = kernel->pageSize();
        root = kernel->taskCreate();
        addr = 0;
        ASSERT_EQ(root->map().allocate(&addr, 4 * page, true),
                  KernReturn::Success);
        ASSERT_EQ(vmInherit(*kernel->vm, root->map(), addr, 4 * page,
                            VmInherit::Share),
                  KernReturn::Success);
        auto data = test::pattern(4 * page, 31);
        ASSERT_EQ(kernel->taskWrite(*root, addr, data.data(),
                                    data.size()),
                  KernReturn::Success);
    }

    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *root = nullptr;
    VmOffset addr = 0;
};

TEST_F(SharingTest, ThreeGenerationsShareOnePage)
{
    // Sharing propagates through generations without nesting share
    // maps: a grandchild's write is visible to everyone.
    Task *child = kernel->taskFork(*root);
    Task *grandchild = kernel->taskFork(*child);

    std::uint32_t magic = 0xabcdef01;
    ASSERT_EQ(kernel->taskWrite(*grandchild, addr, &magic,
                                sizeof(magic)),
              KernReturn::Success);
    std::uint32_t seen = 0;
    ASSERT_EQ(kernel->taskRead(*root, addr, &seen, sizeof(seen)),
              KernReturn::Success);
    EXPECT_EQ(seen, magic);
    ASSERT_EQ(kernel->taskRead(*child, addr, &seen, sizeof(seen)),
              KernReturn::Success);
    EXPECT_EQ(seen, magic);

    // No nested sharing maps: the grandchild's entry points at the
    // same single-level sharing map as the root's.
    const VmMapEntry &re = root->map().entryList().front();
    const VmMapEntry &ge = grandchild->map().entryList().front();
    ASSERT_TRUE(re.isSubMap());
    ASSERT_TRUE(ge.isSubMap());
    EXPECT_EQ(re.submap, ge.submap);
    EXPECT_FALSE(re.submap->entryList().front().isSubMap());
}

TEST_F(SharingTest, SharerDeathLeavesRegionIntact)
{
    Task *child = kernel->taskFork(*root);
    std::uint32_t magic = 0x5150;
    ASSERT_EQ(kernel->taskWrite(*child, addr, &magic, sizeof(magic)),
              KernReturn::Success);
    kernel->taskTerminate(child);

    std::uint32_t seen = 0;
    ASSERT_EQ(kernel->taskRead(*root, addr, &seen, sizeof(seen)),
              KernReturn::Success);
    EXPECT_EQ(seen, magic);
}

TEST_F(SharingTest, DeallocateByOneSharerOnlyDropsItsReference)
{
    Task *child = kernel->taskFork(*root);
    ASSERT_EQ(vmDeallocate(*kernel->vm, child->map(), addr, 4 * page),
              KernReturn::Success);
    std::uint8_t b = 0;
    EXPECT_EQ(kernel->taskRead(*child, addr, &b, 1),
              KernReturn::InvalidAddress);
    // The root still has the data.
    EXPECT_EQ(kernel->taskRead(*root, addr, &b, 1),
              KernReturn::Success);
}

TEST_F(SharingTest, VirtualCopyOutOfSharedRegion)
{
    // vm_copy from a shared region produces a private COW copy that
    // no longer tracks the sharers' writes.
    Task *child = kernel->taskFork(*root);
    VmOffset dst = addr + 32 * page;
    ASSERT_EQ(child->map().allocate(&dst, 4 * page, false),
              KernReturn::Success);
    ASSERT_EQ(vmCopy(*kernel->vm, child->map(), addr, 4 * page, dst),
              KernReturn::Success);

    std::uint8_t before = 0;
    ASSERT_EQ(kernel->taskRead(*child, dst, &before, 1),
              KernReturn::Success);

    // Root scribbles the shared region; the copy must not change.
    std::uint8_t z = std::uint8_t(before + 1);
    ASSERT_EQ(kernel->taskWrite(*root, addr, &z, 1),
              KernReturn::Success);
    std::uint8_t after = 0;
    ASSERT_EQ(kernel->taskRead(*child, dst, &after, 1),
              KernReturn::Success);
    EXPECT_EQ(after, before);
    // While the shared view did change.
    ASSERT_EQ(kernel->taskRead(*child, addr, &after, 1),
              KernReturn::Success);
    EXPECT_EQ(after, z);
}

TEST_F(SharingTest, PartialInheritanceSplitsTheEntry)
{
    // Make only the middle two pages shared; the outer pages follow
    // copy semantics.
    Task *fresh = kernel->taskCreate();
    VmOffset a = 0;
    ASSERT_EQ(fresh->map().allocate(&a, 4 * page, true),
              KernReturn::Success);
    auto data = test::pattern(4 * page, 32);
    ASSERT_EQ(kernel->taskWrite(*fresh, a, data.data(), data.size()),
              KernReturn::Success);
    ASSERT_EQ(vmInherit(*kernel->vm, fresh->map(), a + page, 2 * page,
                        VmInherit::Share),
              KernReturn::Success);

    Task *child = kernel->taskFork(*fresh);

    // Shared middle: child write visible to parent.
    std::uint8_t z = 0x99;
    ASSERT_EQ(kernel->taskWrite(*child, a + page, &z, 1),
              KernReturn::Success);
    std::uint8_t seen = 0;
    ASSERT_EQ(kernel->taskRead(*fresh, a + page, &seen, 1),
              KernReturn::Success);
    EXPECT_EQ(seen, z);

    // Copied edges: child write private.
    ASSERT_EQ(kernel->taskWrite(*child, a, &z, 1),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskRead(*fresh, a, &seen, 1),
              KernReturn::Success);
    EXPECT_EQ(seen, data[0]);
}

TEST_F(SharingTest, RegionInfoReportsSharing)
{
    Task *child = kernel->taskFork(*root);
    VmOffset probe = addr;
    VmRegionInfo info;
    ASSERT_EQ(vmRegions(*kernel->vm, child->map(), &probe, &info),
              KernReturn::Success);
    EXPECT_TRUE(info.shared);
    EXPECT_EQ(info.start, addr);
    EXPECT_EQ(info.size, 4 * page);
}

TEST_F(SharingTest, ShareMapRefCountsSurviveChurn)
{
    // Fork and kill sharers repeatedly; the sharing map must live
    // exactly as long as one sharer remains.
    std::vector<Task *> sharers;
    for (int i = 0; i < 8; ++i)
        sharers.push_back(kernel->taskFork(*root));
    for (int i = 0; i < 7; ++i) {
        kernel->taskTerminate(sharers[i]);
        std::uint8_t b = 0;
        ASSERT_EQ(kernel->taskRead(*sharers[7], addr, &b, 1),
                  KernReturn::Success);
    }
    kernel->taskTerminate(sharers[7]);
    kernel->taskTerminate(root);
    kernel->vm->flushCache();
    EXPECT_EQ(kernel->vm->liveObjects, 0u);
}

/**
 * Copy inheritance of a region an earlier fork already shared.  The
 * sharing map backs only the tasks that share; a child that inherits
 * by copy gets its own virtual copy (section 2.1), so no write on
 * either side crosses over.  Replayed on every pmap backend.
 */
class CopyOfSharedRegionTest : public ::testing::TestWithParam<ArchType>
{
};

TEST_P(CopyOfSharedRegionTest, CopyInheritedChildGetsAPrivateCopy)
{
    Kernel kernel(test::tinySpec(GetParam(), 4));
    VmSize page = kernel.pageSize();
    Task *parent = kernel.taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(parent->map().allocate(&addr, page, true),
              KernReturn::Success);
    std::uint8_t one = 1;
    ASSERT_EQ(kernel.taskWrite(*parent, addr, &one, 1),
              KernReturn::Success);
    ASSERT_EQ(vmInherit(*kernel.vm, parent->map(), addr, page,
                        VmInherit::Share),
              KernReturn::Success);
    Task *sharer = kernel.taskFork(*parent);
    ASSERT_EQ(vmInherit(*kernel.vm, parent->map(), addr, page,
                        VmInherit::Copy),
              KernReturn::Success);
    Task *copier = kernel.taskFork(*parent);

    // The copy's write reaches neither sharer.
    std::uint8_t two = 2;
    ASSERT_EQ(kernel.taskWrite(*copier, addr, &two, 1),
              KernReturn::Success);
    std::uint8_t seen = 0;
    ASSERT_EQ(kernel.taskRead(*parent, addr, &seen, 1),
              KernReturn::Success);
    EXPECT_EQ(seen, 1);
    ASSERT_EQ(kernel.taskRead(*sharer, addr, &seen, 1),
              KernReturn::Success);
    EXPECT_EQ(seen, 1);
    ASSERT_EQ(kernel.taskRead(*copier, addr, &seen, 1),
              KernReturn::Success);
    EXPECT_EQ(seen, 2);

    // The sharers still share with each other, and not with the copy.
    std::uint8_t three = 3;
    ASSERT_EQ(kernel.taskWrite(*sharer, addr, &three, 1),
              KernReturn::Success);
    ASSERT_EQ(kernel.taskRead(*parent, addr, &seen, 1),
              KernReturn::Success);
    EXPECT_EQ(seen, 3);
    ASSERT_EQ(kernel.taskRead(*copier, addr, &seen, 1),
              KernReturn::Success);
    EXPECT_EQ(seen, 2);

    kernel.taskTerminate(copier);
    kernel.taskTerminate(sharer);
    kernel.taskTerminate(parent);
    kernel.vm->flushCache();
    EXPECT_EQ(kernel.vm->liveObjects, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, CopyOfSharedRegionTest,
    ::testing::ValuesIn(test::allArchs()),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
