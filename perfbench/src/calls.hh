/**
 * @file
 * The simulator entry points the workloads use, each wrapped in a Ctx
 * call so it is counted and, in a traced pass, recorded as a span:
 * Kernel (kern), vm_user (vm) and Machine (hw).
 */

#ifndef PERFBENCH_CALLS_HH
#define PERFBENCH_CALLS_HH

#include <string>

#include "ctx.hh"
#include "kern/kernel.hh"
#include "vm/vm_user.hh"

namespace perfbench
{

class Calls
{
  public:
    Calls(Ctx &ctx, mach::Kernel &kernel) : ctx(ctx), k(kernel) {}

    /** @name kern @{ */
    mach::Task *
    taskCreate()
    {
        mach::Task *t =
            ctx.call(Call::TaskCreate, 0, [&] { return k.taskCreate(); });
        if (!t)
            ctx.fail("kern.task_create", -1);
        return t;
    }

    mach::Task *
    fork(mach::Task &parent)
    {
        mach::Task *t =
            ctx.call(Call::Fork, 0, [&] { return k.taskFork(parent); });
        if (!t)
            ctx.fail("kern.fork", -1);
        return t;
    }

    void
    terminate(mach::Task *task)
    {
        ctx.call(Call::Terminate, 0, [&] { k.taskTerminate(task); });
    }

    mach::KernReturn
    touch(mach::Task &task, mach::VmOffset va, mach::VmSize len,
          mach::AccessType type)
    {
        return ctx.call(Call::TaskTouch, hwPages(len), [&] {
            return k.taskTouch(task, va, len, type);
        });
    }

    mach::KernReturn
    taskRead(mach::Task &task, mach::VmOffset va, void *buf,
             mach::VmSize len)
    {
        return ctx.call(Call::TaskRead, len, [&] {
            return k.taskRead(task, va, buf, len);
        });
    }

    mach::KernReturn
    mapFile(mach::Task &task, const std::string &name,
            mach::VmOffset *addr, mach::VmSize *size)
    {
        return ctx.call(Call::MapFile, 0, [&] {
            return k.mapFile(task, name, addr, size);
        });
    }

    mach::KernReturn
    fileRead(const std::string &name, void *buf, mach::VmSize len,
             mach::VmSize *got)
    {
        return ctx.call(Call::FileRead, len, [&] {
            return k.fileRead(name, 0, buf, len, got);
        });
    }

    mach::KernReturn
    fileWrite(const std::string &name, const void *buf, mach::VmSize len)
    {
        return ctx.call(Call::FileWrite, len, [&] {
            return k.fileWrite(name, 0, buf, len);
        });
    }
    /** @} */

    /** @name vm @{ */
    mach::KernReturn
    allocate(mach::Task &task, mach::VmOffset *addr, mach::VmSize size,
             bool anywhere = true)
    {
        return ctx.call(Call::VmAllocate, 0, [&] {
            return mach::vmAllocate(*k.vm, task.map(), addr, size,
                                    anywhere);
        });
    }

    mach::KernReturn
    deallocate(mach::Task &task, mach::VmOffset addr, mach::VmSize size)
    {
        return ctx.call(Call::VmDeallocate, 0, [&] {
            return mach::vmDeallocate(*k.vm, task.map(), addr, size);
        });
    }

    /** Deallocate the whole address space (exec). */
    mach::KernReturn
    deallocateAll(mach::Task &task)
    {
        mach::VmMap &m = task.map();
        return deallocate(task, m.minAddress(),
                          m.maxAddress() - m.minAddress());
    }

    mach::KernReturn
    protect(mach::Task &task, mach::VmOffset addr, mach::VmSize size,
            mach::VmProt prot)
    {
        return ctx.call(Call::VmProtect, 0, [&] {
            return mach::vmProtect(*k.vm, task.map(), addr, size, false,
                                   prot);
        });
    }
    /** @} */

    /** @name hw @{ */
    mach::KernReturn
    hwTouch(mach::CpuId cpu, mach::VmOffset va, mach::VmSize len,
            mach::AccessType type)
    {
        return ctx.call(Call::HwTouch, hwPages(len), [&] {
            return k.machine.touch(cpu, va, len, type);
        });
    }

    mach::KernReturn
    hwRead(mach::CpuId cpu, mach::VmOffset va, void *buf,
           mach::VmSize len)
    {
        return ctx.call(Call::HwRead, len, [&] {
            return k.machine.read(cpu, va, buf, len);
        });
    }

    mach::KernReturn
    hwWrite(mach::CpuId cpu, mach::VmOffset va, const void *buf,
            mach::VmSize len)
    {
        return ctx.call(Call::HwWrite, len, [&] {
            return k.machine.write(cpu, va, buf, len);
        });
    }

    void
    timerTick()
    {
        ctx.call(Call::TimerTick, 0, [&] { k.machine.timerTick(); });
    }
    /** @} */

  private:
    std::uint64_t
    hwPages(mach::VmSize len) const
    {
        mach::VmSize hw = k.machine.hwPageSize();
        return (len + hw - 1) / hw;
    }

    Ctx &ctx;
    mach::Kernel &k;
};

} // namespace perfbench

#endif // PERFBENCH_CALLS_HH
