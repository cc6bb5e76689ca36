#include "sim/sim_disk.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "sim/fault_inject.hh"
#include "sim/trace.hh"

namespace mach
{

SimDisk::SimDisk(SimClock &clock, const CostModel &costs,
                 std::uint64_t capacity_bytes)
    : clock(clock), costs(costs), capacityBytes(capacity_bytes)
{
}

void
SimDisk::bindMetrics(MetricsRegistry &reg, const std::string &prefix) const
{
    reg.bind(prefix + ".reads", &reads);
    reg.bind(prefix + ".writes", &writes);
    reg.bind(prefix + ".bytes", &bytes);
    reg.bind(prefix + ".errors", &errors);
    reg.bind(prefix + ".resident_bytes", &resident);
    reg.bind(prefix + ".transfer_ns", &transferNs);
}

void
SimDisk::checkRange(std::uint64_t offset, std::uint64_t len) const
{
    if (offset + len > capacityBytes || offset + len < offset) {
        panic("SimDisk access [%llu, %llu) beyond capacity %llu",
              (unsigned long long)offset,
              (unsigned long long)(offset + len),
              (unsigned long long)capacityBytes);
    }
}

void
SimDisk::load(std::uint64_t offset, void *buf, std::uint64_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(buf);
    while (len) {
        std::uint64_t idx = offset / kChunkBytes;
        std::uint64_t in = offset % kChunkBytes;
        std::uint64_t n = std::min(len, kChunkBytes - in);
        if (idx < chunks.size() && chunks[idx])
            std::memcpy(dst, chunks[idx].get() + in, n);
        else
            std::memset(dst, 0, n);
        dst += n;
        offset += n;
        len -= n;
    }
}

void
SimDisk::store(std::uint64_t offset, const void *buf, std::uint64_t len)
{
    auto *src = static_cast<const std::uint8_t *>(buf);
    if (chunks.empty())
        chunks.resize((capacityBytes + kChunkBytes - 1) / kChunkBytes);
    while (len) {
        std::uint64_t in = offset % kChunkBytes;
        std::uint64_t n = std::min(len, kChunkBytes - in);
        auto &chunk = chunks[offset / kChunkBytes];
        if (!chunk) {
            chunk = std::make_unique<std::uint8_t[]>(kChunkBytes);
            resident += kChunkBytes;
        }
        std::memcpy(chunk.get() + in, src, n);
        src += n;
        offset += n;
        len -= n;
    }
}

PagerResult
SimDisk::injectionFor(bool is_write, std::uint64_t offset,
                      std::uint64_t len)
{
    if (!inject)
        return PagerResult::Ok;
    PagerResult pr = inject->decide(
        is_write ? FaultOp::DiskWrite : FaultOp::DiskRead, offset,
        &clock);
    if (pr != PagerResult::Ok) {
        // The device was busy for the whole attempt before it
        // reported the error.
        SimTime cost = costs.diskCost(len);
        clock.charge(CostKind::Disk, cost);
        ++errors;
        transferNs.record(cost);
        traceEmit(clock, TraceEventType::IoError,
                  static_cast<std::uint8_t>(pr), offset,
                  static_cast<std::uint64_t>(
                      is_write ? FaultOp::DiskWrite : FaultOp::DiskRead));
    }
    return pr;
}

PagerResult
SimDisk::read(std::uint64_t offset, void *buf, std::uint64_t len)
{
    checkRange(offset, len);
    PagerResult pr = injectionFor(false, offset, len);
    if (pr != PagerResult::Ok)
        return pr;
    load(offset, buf, len);
    SimTime cost = costs.diskCost(len);
    clock.charge(CostKind::Disk, cost);
    ++reads;
    bytes += len;
    transferNs.record(cost);
    traceEmit(clock, TraceEventType::DiskRead, 0, offset, len);
    return PagerResult::Ok;
}

PagerResult
SimDisk::write(std::uint64_t offset, const void *buf, std::uint64_t len)
{
    checkRange(offset, len);
    PagerResult pr = injectionFor(true, offset, len);
    if (pr != PagerResult::Ok)
        return pr;
    store(offset, buf, len);
    SimTime cost = costs.diskCost(len);
    clock.charge(CostKind::Disk, cost);
    ++writes;
    bytes += len;
    transferNs.record(cost);
    traceEmit(clock, TraceEventType::DiskWrite, 0, offset, len);
    return PagerResult::Ok;
}

PagerResult
SimDisk::writeAsync(std::uint64_t offset, const void *buf,
                    std::uint64_t len)
{
    checkRange(offset, len);
    PagerResult pr = injectionFor(true, offset, len);
    if (pr != PagerResult::Ok)
        return pr;
    store(offset, buf, len);
    SimTime cost = static_cast<SimTime>(costs.diskPerByte * len);
    clock.charge(CostKind::Disk, cost);
    ++writes;
    bytes += len;
    transferNs.record(cost);
    traceEmit(clock, TraceEventType::DiskWrite, 1, offset, len);
    return PagerResult::Ok;
}

} // namespace mach
