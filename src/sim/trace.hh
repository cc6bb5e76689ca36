/**
 * @file
 * Low-overhead VM event tracing (the observability layer).
 *
 * A TraceSink is a fixed-capacity ring buffer of typed events —
 * fault begin/end (with resolution kind), pageout, TLB shootdown,
 * IPI, pmap enter/remove/protect, and disk I/O — each stamped with
 * the simulated time and the CPU the kernel was executing on.  The
 * buffer is lossy but counted: when full, the oldest event is
 * overwritten and the drop is visible through totalDropped().
 *
 * A sink is attached to a SimClock; every emit site tests the sink
 * pointer, so a run with no sink costs one predictable branch per
 * event.  The sink holds events only: counters and latency
 * histograms are recorded by the layers themselves whether or not a
 * sink is attached (src/sim/metrics.hh).  Tracing never charges
 * simulated time and never changes which code runs, so attaching a
 * sink cannot perturb the results being traced.
 */

#ifndef MACH_SIM_TRACE_HH
#define MACH_SIM_TRACE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sim/sim_clock.hh"

namespace mach
{

/** What a trace record describes. */
enum class TraceEventType : std::uint8_t
{
    FaultBegin = 0, //!< vm_fault entered: detail=FaultType, arg0=va
    FaultEnd,       //!< vm_fault resolved: detail=TraceFaultKind,
                    //!< arg0=va, arg1=elapsed simulated ns
    Pageout,        //!< one page pushed to backing store:
                    //!< arg0=physAddr, arg1=elapsed simulated ns
    Shootdown,      //!< TLB consistency action requested:
                    //!< detail=ShootdownMode, arg0=start, arg1=end
    Ipi,            //!< shootdown IPI sent: arg0=target CPU,
                    //!< arg1=dispatch round id
    PmapEnter,      //!< hardware mapping installed: detail=wired,
                    //!< arg0=va, arg1=pa
    PmapRemove,     //!< mappings invalidated: arg0=start, arg1=end
    PmapProtect,    //!< permissions reduced: detail=VmProt,
                    //!< arg0=start, arg1=end
    PmapRemoveAll,  //!< page removed from every map [pageout]:
                    //!< detail=ShootdownMode, arg0=physAddr
    PmapCow,        //!< write access revoked everywhere [virtual
                    //!< copy]: detail=ShootdownMode, arg0=physAddr
    DiskRead,       //!< detail=0, arg0=offset, arg1=len
    DiskWrite,      //!< detail=1 if write-behind, arg0=offset, arg1=len
    IoError,        //!< pager/disk operation failed:
                    //!< detail=PagerResult, arg0=offset, arg1=FaultOp
    IoRetry,        //!< failed operation retried after backoff:
                    //!< detail=FaultOp, arg0=offset, arg1=backoff ns
    IoRecovered,    //!< operation succeeded after >=1 failure:
                    //!< detail=FaultOp, arg0=offset, arg1=attempts
    PagerIn,        //!< pager_data_request issued: detail=PagerKind,
                    //!< arg0=offset, arg1=object id
    PagerOut,       //!< pager_data_write issued: detail=PagerKind,
                    //!< arg0=offset, arg1=object id
    BufHit,         //!< buffer cache hit: arg0=block address
    BufMiss,        //!< buffer cache miss (read from disk):
                    //!< arg0=block address
    BufWriteback,   //!< dirty buffer flushed: arg0=block address,
                    //!< arg1=len
    PageoutBegin,   //!< pageout daemon pass entered: arg0=free pages,
                    //!< arg1=free target
    PageoutEnd,     //!< pageout daemon pass finished: arg0=pages
                    //!< scanned, arg1=pages reclaimed,
                    //!< arg2=pages laundered
    NumTypes,
};

/** Name of an event type, for reports and test failure messages. */
const char *traceEventName(TraceEventType type);

/** How a fault was resolved (the FaultEnd detail byte). */
enum class TraceFaultKind : std::uint8_t
{
    Resident = 0, //!< page already resident in the faulted object
    ZeroFill,     //!< fresh page zero filled
    Pagein,       //!< data supplied by a pager
    Cow,          //!< copy-on-write page copy
    Failed,       //!< lookup failed (bad address / protection)
    Error,        //!< pagein failed; KERN_MEMORY_ERROR to the thread
};

/** Name of a fault resolution kind. */
const char *traceFaultKindName(TraceFaultKind kind);

/** One traced event. */
struct TraceRecord
{
    SimTime time = 0;         //!< simulated ns at emit
    std::uint64_t arg0 = 0;   //!< per-type, see TraceEventType
    std::uint64_t arg1 = 0;   //!< per-type, see TraceEventType
    std::uint64_t arg2 = 0;   //!< per-type (usually VmObject id)
    std::uint32_t task = 0;   //!< task the kernel was working for
    CpuId cpu = 0;            //!< CPU the kernel was executing on
    TraceEventType type = TraceEventType::FaultBegin;
    std::uint8_t detail = 0;  //!< per-type discriminator
};

/**
 * The event sink: a bounded ring of TraceRecords.  Attach to a
 * machine with machine.clock().setTraceSink(&sink); detach with
 * nullptr.
 */
class TraceSink
{
  public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit TraceSink(std::size_t capacity = kDefaultCapacity);

    /** Append one event (oldest is overwritten when full). */
    void
    emit(TraceEventType type, CpuId cpu, SimTime time,
         std::uint8_t detail, std::uint64_t arg0, std::uint64_t arg1,
         std::uint64_t arg2 = 0, std::uint32_t task = 0)
    {
        TraceRecord &r = ring[next];
        r.time = time;
        r.cpu = cpu;
        r.type = type;
        r.detail = detail;
        r.arg0 = arg0;
        r.arg1 = arg1;
        r.arg2 = arg2;
        r.task = task;
        next = next + 1 == ring.size() ? 0 : next + 1;
        ++total_;
    }

    /** Events currently held (≤ capacity). */
    std::size_t
    size() const
    {
        return total_ < ring.size() ? std::size_t(total_) : ring.size();
    }

    std::size_t capacity() const { return ring.size(); }

    /** Events ever emitted, including overwritten ones. */
    std::uint64_t totalEmitted() const { return total_; }

    /** Events lost to ring wraparound (lossy but counted). */
    std::uint64_t totalDropped() const { return total_ - size(); }

    /** The @p i-th retained event, oldest first. */
    const TraceRecord &
    at(std::size_t i) const
    {
        std::size_t base = total_ <= ring.size() ? 0 : next;
        std::size_t idx = base + i;
        if (idx >= ring.size())
            idx -= ring.size();
        return ring[idx];
    }

    /** Forget all events. */
    void reset();

  private:
    std::vector<TraceRecord> ring;
    std::size_t next = 0;
    std::uint64_t total_ = 0;
};

/**
 * Emit an event stamped with the clock's time, current CPU and
 * current task, if a sink is attached.  @p arg2 conventionally
 * carries the VmObject id for events that have one (see
 * TraceEventType).
 */
inline void
traceEmit(SimClock &clock, TraceEventType type, std::uint8_t detail,
          std::uint64_t arg0, std::uint64_t arg1,
          std::uint64_t arg2 = 0)
{
    if (TraceSink *t = clock.traceSink())
        t->emit(type, clock.traceCpu(), clock.now(), detail, arg0, arg1,
                arg2, clock.traceTask());
}

} // namespace mach

#endif // MACH_SIM_TRACE_HH
