/**
 * @file
 * Simulated disk: a flat byte-addressed store with latency modeling.
 *
 * Backs both the default (swap) pager and the simulated inode file
 * system.  Data is real — bytes written are the bytes later read — so
 * end-to-end integrity through pageout/pagein is testable.
 */

#ifndef MACH_SIM_SIM_DISK_HH
#define MACH_SIM_SIM_DISK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "sim/cost_model.hh"
#include "sim/metrics.hh"
#include "sim/sim_clock.hh"

namespace mach
{

class FaultInjector;

/** A simulated disk device. */
class SimDisk
{
  public:
    /**
     * @param clock machine clock to charge transfer time to
     * @param costs cost table supplying latency and bandwidth
     * @param capacity_bytes disk size
     */
    SimDisk(SimClock &clock, const CostModel &costs,
            std::uint64_t capacity_bytes);

    std::uint64_t capacity() const { return store.size(); }

    /**
     * Read @p len bytes at @p offset into @p buf, charging time.
     * With a fault injector attached the transfer may fail: device
     * time is still charged, @p buf is untouched, and the error is
     * returned.
     */
    PagerResult read(std::uint64_t offset, void *buf, std::uint64_t len);

    /** Write @p len bytes at @p offset from @p buf, charging time. */
    PagerResult write(std::uint64_t offset, const void *buf,
                      std::uint64_t len);

    /**
     * Asynchronous (write-behind) write: the seek/rotate latency
     * overlaps with computation, so only the transfer is charged.
     */
    PagerResult writeAsync(std::uint64_t offset, const void *buf,
                           std::uint64_t len);

    /**
     * Attach a fault injector (nullptr detaches).  Disabled or
     * absent injectors cost one branch per operation.
     */
    void setFaultInjector(FaultInjector *injector) { inject = injector; }

    /** Number of read operations performed. */
    std::uint64_t readOps() const { return reads; }
    /** Number of write operations performed. */
    std::uint64_t writeOps() const { return writes; }
    /** Total bytes transferred in either direction. */
    std::uint64_t bytesTransferred() const { return bytes; }
    /** Operations failed by the fault injector. */
    std::uint64_t ioErrors() const { return errors; }
    /** Simulated device time of every transfer, failed ones too. */
    const LatencyHistogram &latency() const { return transferNs; }

    /**
     * Name this disk's counters and latency histogram in @p reg as
     * @p prefix.{reads,writes,bytes,errors,transfer_ns}.
     */
    void bindMetrics(MetricsRegistry &reg,
                     const std::string &prefix) const;

  private:
    void checkRange(std::uint64_t offset, std::uint64_t len) const;

    /** Consult the injector; on error charge device time + count. */
    PagerResult injectionFor(bool is_write, std::uint64_t offset,
                             std::uint64_t len);

    SimClock &clock;
    const CostModel &costs;
    std::vector<std::uint8_t> store;
    FaultInjector *inject = nullptr;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t errors = 0;
    LatencyHistogram transferNs;
};

} // namespace mach

#endif // MACH_SIM_SIM_DISK_HH
