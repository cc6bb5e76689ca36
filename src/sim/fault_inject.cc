#include "sim/fault_inject.hh"

#include "sim/sim_clock.hh"

namespace mach
{

namespace
{

/** splitmix64: a full-avalanche mix of one 64-bit word. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** A uniform draw in [0, 1) from a hash value. */
double
u01(std::uint64_t h)
{
    return double(h >> 11) * 0x1.0p-53;
}

/** Salts separating the independent draws made per site. */
constexpr std::uint64_t kSpikeSalt = 0x51;
constexpr std::uint64_t kErrorSalt = 0xe1;
constexpr std::uint64_t kPermSalt = 0x9e;
constexpr std::uint64_t kTimeoutSalt = 0x70;

} // namespace

void
FaultInjector::configure(const FaultPlan &plan)
{
    plan_ = plan;
    reset();
}

void
FaultInjector::reset()
{
    attempts_.clear();
    injected_ = 0;
    timeouts_ = 0;
    spikes_ = 0;
    healed_ = 0;
    perOp_.fill(0);
}

PagerResult
FaultInjector::decide(FaultOp op, std::uint64_t key, SimClock *clock)
{
    if (!plan_.enabled())
        return PagerResult::Ok;

    // Site identity: one hash per (seed, op, key); all draws for the
    // site are salted re-hashes, so decisions never depend on how
    // many other sites were consulted first.
    std::uint64_t site = mix(plan_.seed ^ mix(
        (static_cast<std::uint64_t>(op) << 56) ^ key));

    if (clock && plan_.latencySpikeRate > 0.0 &&
        u01(mix(site ^ kSpikeSalt)) < plan_.latencySpikeRate) {
        clock->charge(CostKind::Disk, plan_.latencySpikeNs);
        ++spikes_;
    }

    double rate = faultOpIsWrite(op) ? plan_.writeErrorRate
                                     : plan_.readErrorRate;
    if (rate <= 0.0 || u01(mix(site ^ kErrorSalt)) >= rate)
        return PagerResult::Ok;
    if (injected_ >= plan_.maxInjections)
        return PagerResult::Ok;

    if (u01(mix(site ^ kPermSalt)) < plan_.permanentFraction) {
        ++injected_;
        ++perOp_[static_cast<unsigned>(op)];
        return PagerResult::PermanentError;
    }

    // Transient site: fail the first transientAttempts attempts,
    // then heal (every later attempt succeeds).
    unsigned &tried = attempts_[site];
    if (tried >= plan_.transientAttempts)
        return PagerResult::Ok;
    if (++tried == plan_.transientAttempts)
        ++healed_;
    ++injected_;
    ++perOp_[static_cast<unsigned>(op)];
    if (u01(mix(site ^ kTimeoutSalt)) < plan_.timeoutFraction) {
        ++timeouts_;
        return PagerResult::Timeout;
    }
    return PagerResult::TransientError;
}

} // namespace mach
