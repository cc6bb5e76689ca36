/**
 * @file
 * The VM metrics registry (the introspection layer's counter plane).
 *
 * Every statistic is a plain field stored once, in the layer that
 * updates it: the vm_statistics counters and the fault / pageout
 * latency histograms in VmSys::stats, the shootdown and table
 * counters plus the pmap-operation and shootdown-round histograms on
 * PmapSystem, the transfer counters and latency histogram on each
 * SimDisk.  Hot paths update them directly (`++stats.x`,
 * `hist.record(ns)`), whether or not anything is observing.
 *
 * A MetricsRegistry is only a table of names over that storage:
 * bind() gives a field a name, and value() / snapshot() read the
 * storage when asked.  The simulator runs on one host thread, so
 * there is nothing to merge and nothing to synchronize.
 *
 * The same header defines LatencyHistogram and VmAccounting, the
 * per-task / per-object attribution record maintained at the
 * vm_fault / vm_pageout sites and surfaced through the
 * task_info-style API in vm_user.
 */

#ifndef MACH_SIM_METRICS_HH
#define MACH_SIM_METRICS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "sim/trace.hh"

namespace mach
{

/**
 * A log2-bucketed histogram of simulated nanoseconds.  Cheap enough
 * to update per event; rich enough for benchmarks to report counts,
 * totals and approximate quantiles.
 */
class LatencyHistogram
{
  public:
    /** Bucket i holds samples with bit_width(ns) == i (0 = zero). */
    static constexpr unsigned kBuckets = 48;

    void
    record(SimTime ns)
    {
        ++buckets_[bucketOf(ns)];
        ++count_;
        sum_ += ns;
        min_ = std::min(min_, ns);
        max_ = std::max(max_, ns);
    }

    std::uint64_t count() const { return count_; }
    SimTime total() const { return sum_; }
    SimTime min() const { return count_ ? min_ : 0; }
    SimTime max() const { return max_; }
    SimTime mean() const { return count_ ? sum_ / count_ : 0; }
    std::uint64_t bucketCount(unsigned i) const { return buckets_[i]; }

    /** Inclusive upper bound of bucket @p i (its samples are ≤ it). */
    static SimTime
    bucketUpperBound(unsigned i)
    {
        if (i == 0)
            return 0;
        if (i >= 64)
            return ~SimTime(0);
        return (SimTime(1) << i) - 1;
    }

    /**
     * Approximate quantile: the upper bound of the first bucket at
     * which the cumulative count reaches @p p * count (0 < p <= 1).
     */
    SimTime quantile(double p) const;

    void merge(const LatencyHistogram &other);
    void reset() { *this = LatencyHistogram{}; }

    bool operator==(const LatencyHistogram &) const = default;

  private:
    static unsigned
    bucketOf(SimTime ns)
    {
        unsigned w = std::bit_width(std::uint64_t(ns));
        return w < kBuckets ? w : kBuckets - 1;
    }

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    SimTime sum_ = 0;
    SimTime min_ = ~SimTime(0); //!< reads as 0 through min() when empty
    SimTime max_ = 0;
};

/** Opaque handle to a bound metric (index into the registry). */
struct MetricId
{
    static constexpr unsigned kInvalid = ~0u;
    unsigned index = kInvalid;
    bool valid() const { return index != kInvalid; }
};

/**
 * Attribution record for one task (via its VmMap) or one VmObject:
 * where that task's faults went, what I/O it caused.  Updated at the
 * vm_fault / vm_pageout sites, read by vmTaskInfo and the
 * introspection tests.
 */
struct VmAccounting
{
    static constexpr unsigned kNumFaultKinds = 6;

    /** Faults by resolution, indexed by TraceFaultKind. */
    std::array<std::uint64_t, kNumFaultKinds> faultsByKind{};
    std::uint64_t pageouts = 0; //!< pages of this object laundered

    /** Attribute one resolved fault. */
    void
    countFault(TraceFaultKind kind)
    {
        ++faultsByKind[static_cast<unsigned>(kind)];
    }

    std::uint64_t
    faults() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t k : faultsByKind)
            n += k;
        return n;
    }

    std::uint64_t
    faultsOf(TraceFaultKind kind) const
    {
        return faultsByKind[static_cast<unsigned>(kind)];
    }

    std::uint64_t pageins() const
    {
        return faultsOf(TraceFaultKind::Pagein);
    }
    std::uint64_t zeroFills() const
    {
        return faultsOf(TraceFaultKind::ZeroFill);
    }
    std::uint64_t cowFaults() const
    {
        return faultsOf(TraceFaultKind::Cow);
    }

    void
    merge(const VmAccounting &other)
    {
        for (unsigned i = 0; i < kNumFaultKinds; ++i)
            faultsByKind[i] += other.faultsByKind[i];
        pageouts += other.pageouts;
    }
};

/**
 * The registry proper: names bound to counters and histograms that
 * live elsewhere.  Binding is boot-time and cold; reading happens
 * only when someone asks.  The bound storage must outlive every read.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Name a counter or histogram.  Binding a name again to the same
     * storage returns the existing id; binding it to different
     * storage is a programming error.
     */
    MetricId bind(const std::string &name, const std::uint64_t *counter);
    MetricId bind(const std::string &name,
                  const LatencyHistogram *histogram);

    /** Current value of a bound counter. */
    std::uint64_t value(MetricId id) const;

    MetricId find(const std::string &name) const;
    std::size_t size() const { return defs.size(); }

    struct Snapshot
    {
        /** name -> value of every counter, sorted by name. */
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        /** name -> copy of every histogram, sorted by name. */
        std::vector<std::pair<std::string, LatencyHistogram>> histograms;

        /** Convenience lookup; 0 when absent. */
        std::uint64_t counterValue(const std::string &name) const;
        /** Convenience lookup; empty when absent. */
        LatencyHistogram histogram(const std::string &name) const;
    };

    /** Read every bound metric. */
    Snapshot snapshot() const;

  private:
    struct Def
    {
        std::string name;
        const std::uint64_t *counter = nullptr;
        const LatencyHistogram *histogram = nullptr;
    };

    MetricId bindDef(Def def);

    std::vector<Def> defs;
    std::unordered_map<std::string, unsigned> byName;
};

} // namespace mach

#endif // MACH_SIM_METRICS_HH
