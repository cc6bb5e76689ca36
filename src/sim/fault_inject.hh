/**
 * @file
 * Deterministic fault injection for the paging I/O paths.
 *
 * The paper's central claim — that the machine-independent layer can
 * always rebuild state "from machine-independent data structures
 * alone" — is only as strong as its error paths.  A FaultInjector
 * exercises them: it decides, per I/O attempt, whether a simulated
 * disk transfer, pager exchange or network fetch fails, whether the
 * failure is transient or permanent, and whether the device takes a
 * latency spike.
 *
 * Determinism: every decision is a pure hash of (seed, operation,
 * key), independent of global call order, plus a per-site attempt
 * count that makes transient errors heal after a fixed number of
 * retries.  Two runs with the same seed and the same workload see
 * exactly the same failures at exactly the same simulated times,
 * which is what makes backoff schedules and recovery counts
 * assertable in tests.  Latency spikes are charged to the simulated
 * clock, so injected slowness is visible to the cost model the same
 * way real device time is.
 */

#ifndef MACH_SIM_FAULT_INJECT_HH
#define MACH_SIM_FAULT_INJECT_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "base/status.hh"
#include "base/types.hh"

namespace mach
{

class SimClock;

/** Which I/O path an injection decision applies to. */
enum class FaultOp : unsigned
{
    DiskRead = 0, //!< SimDisk::read
    DiskWrite,    //!< SimDisk::write / writeAsync
    PagerIn,      //!< Pager::dataRequest (kernel side)
    PagerOut,     //!< Pager::dataWrite (kernel side)
    NetFetch,     //!< NetPager remote round trip
    ExtRequest,   //!< ExternalPager message exchange
    NumOps,
};

/** True if @p op moves data toward backing store. */
constexpr bool
faultOpIsWrite(FaultOp op)
{
    return op == FaultOp::DiskWrite || op == FaultOp::PagerOut;
}

/** The knobs of one injection campaign.  All-zero rates = disabled. */
struct FaultPlan
{
    /** Seed for the decision hash; same seed -> same failures. */
    std::uint64_t seed = 1;

    /** Probability a read-side operation (DiskRead, PagerIn,
     *  NetFetch, ExtRequest) is an error site. */
    double readErrorRate = 0.0;

    /** Probability a write-side operation is an error site. */
    double writeErrorRate = 0.0;

    /** Of the error sites, the fraction that never heal. */
    double permanentFraction = 0.0;

    /** Of the transient error sites, the fraction reported as
     *  Timeout rather than TransientError. */
    double timeoutFraction = 0.0;

    /** Attempts a transient site fails before healing. */
    unsigned transientAttempts = 1;

    /** Probability an operation takes a latency spike. */
    double latencySpikeRate = 0.0;

    /** Extra simulated time charged per spike. */
    SimTime latencySpikeNs = 0;

    /** Stop injecting errors after this many (spikes excluded). */
    std::uint64_t maxInjections = ~std::uint64_t(0);

    bool
    enabled() const
    {
        return readErrorRate > 0.0 || writeErrorRate > 0.0 ||
            latencySpikeRate > 0.0;
    }
};

/**
 * The injector: consulted by SimDisk and the pagers on every I/O
 * attempt.  Default-constructed injectors are disabled and decide
 * Ok unconditionally.
 */
class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultPlan &plan) { configure(plan); }

    /** Install a plan (also clears attempt history and counters). */
    void configure(const FaultPlan &plan);

    /** Forget attempt history and counters; keep the plan. */
    void reset();

    bool enabled() const { return plan_.enabled(); }
    const FaultPlan &plan() const { return plan_; }

    /**
     * Decide the outcome of one attempt of @p op on @p key (a byte
     * offset or similar site identity).  With @p clock, latency
     * spikes charge simulated disk time.  Pure function of
     * (seed, op, key) plus the per-site attempt count.
     */
    PagerResult decide(FaultOp op, std::uint64_t key,
                       SimClock *clock = nullptr);

    /** @name Counters @{ */
    /** Errors injected (every non-Ok decision). */
    std::uint64_t injectedErrors() const { return injected_; }
    /** Errors injected on one path. */
    std::uint64_t
    injectedErrorsFor(FaultOp op) const
    {
        return perOp_[static_cast<unsigned>(op)];
    }
    /** Injected errors reported as Timeout. */
    std::uint64_t injectedTimeouts() const { return timeouts_; }
    /** Latency spikes charged. */
    std::uint64_t latencySpikes() const { return spikes_; }
    /** Transient sites that exhausted their failures (the next
     *  attempt on each succeeds). */
    std::uint64_t sitesHealed() const { return healed_; }
    /** @} */

  private:
    FaultPlan plan_;
    /** Failures so far per transient error site. */
    std::unordered_map<std::uint64_t, unsigned> attempts_;
    std::uint64_t injected_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t spikes_ = 0;
    std::uint64_t healed_ = 0;
    std::array<std::uint64_t, static_cast<unsigned>(FaultOp::NumOps)>
        perOp_{};
};

} // namespace mach

#endif // MACH_SIM_FAULT_INJECT_HH
