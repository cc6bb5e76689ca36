/**
 * @file
 * Deterministic simulated-time clock with per-category accounting.
 *
 * The paper reports wall-clock measurements on 1987 hardware; this
 * reproduction replaces the testbed with a simulated machine, so all
 * "time" is accumulated here as operations charge their modeled
 * costs.  Charges are also bucketed by category so benchmarks and
 * ablations can report where time went.
 */

#ifndef MACH_SIM_SIM_CLOCK_HH
#define MACH_SIM_SIM_CLOCK_HH

#include <array>
#include <cstddef>

#include "base/types.hh"

namespace mach
{

class TraceSink;

/** What kind of work a charge represents. */
enum class CostKind : unsigned
{
    MemCopy = 0,   //!< bulk data copy
    MemZero,       //!< zero fill
    FaultTrap,     //!< hardware trap entry/exit
    Software,      //!< machine-independent kernel software
    PmapOp,        //!< machine-dependent map manipulation
    TlbMiss,       //!< hardware translation walk / reload
    TlbFlush,      //!< TLB invalidation
    Ipi,           //!< inter-processor interrupts
    Disk,          //!< simulated disk transfer
    Ipc,           //!< message passing
    NumKinds,
};

/** Name of a cost kind, for reports. */
const char *costKindName(CostKind kind);

/**
 * Accumulates simulated nanoseconds.  One instance per Machine; every
 * layer charges costs through it.
 */
class SimClock
{
  public:
    static constexpr std::size_t numKinds =
        static_cast<std::size_t>(CostKind::NumKinds);

    /** Current simulated time in nanoseconds. */
    SimTime now() const { return time; }

    /** Advance simulated time, attributing it to @p kind. */
    void
    charge(CostKind kind, SimTime ns)
    {
        time += ns;
        byKind[static_cast<std::size_t>(kind)] += ns;
    }

    /** Total time charged to @p kind since the last reset. */
    SimTime
    kindTotal(CostKind kind) const
    {
        return byKind[static_cast<std::size_t>(kind)];
    }

    /** Reset time and all category accumulators to zero. */
    void reset();

    /** Time elapsed since @p since. */
    SimTime elapsed(SimTime since) const { return time - since; }

    /**
     * @name Event tracing (src/sim/trace.hh)
     *
     * The clock carries the trace sink because every layer that
     * charges time already holds the clock; emit sites go through
     * traceEmit() in trace.hh, which tests this pointer first.
     * The Machine mirrors its current CPU here so events can be
     * stamped without reaching back into hw/.
     * @{
     */
    TraceSink *traceSink() const { return trace; }
    void setTraceSink(TraceSink *sink) { trace = sink; }
    CpuId traceCpu() const { return tCpu; }
    void setTraceCpu(CpuId cpu) { tCpu = cpu; }

    /**
     * The task the kernel is currently working for (0 = none/kernel
     * itself), mirrored by Kernel::switchTo so trace records carry
     * per-task attribution without the VM layer knowing about tasks.
     */
    std::uint32_t traceTask() const { return tTask; }
    void setTraceTask(std::uint32_t task) { tTask = task; }
    /** @} */

  private:
    SimTime time = 0;
    TraceSink *trace = nullptr;
    CpuId tCpu = 0;
    std::uint32_t tTask = 0;
    std::array<SimTime, numKinds> byKind{};
};

/**
 * RAII scope that measures elapsed simulated time.
 */
class SimStopwatch
{
  public:
    explicit SimStopwatch(const SimClock &c) : clock(c), start(c.now()) {}
    SimTime elapsed() const { return clock.now() - start; }

  private:
    const SimClock &clock;
    SimTime start;
};

} // namespace mach

#endif // MACH_SIM_SIM_CLOCK_HH
