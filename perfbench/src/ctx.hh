/**
 * @file
 * The benchmark's call boundary: every call a workload makes into the
 * simulator's kern, vm and hw layers goes through a Ctx, which counts
 * it as attempted (and failed, unless it returned Success) and, in a
 * traced pass, records a host-time span around it.
 *
 * Spans are kept in memory for the pass.  Each step opens a root span;
 * every call made during the step is recorded as its child, and all
 * spans of one step carry the step's id.
 */

#ifndef PERFBENCH_CTX_HH
#define PERFBENCH_CTX_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "base/status.hh"

namespace perfbench
{

/** What a span covers: one step, or one call into a layer. */
enum class Call : std::uint8_t
{
    Step = 0,
    // kern (Kernel)
    TaskCreate,
    Fork,
    Terminate,
    TaskTouch,
    TaskRead,
    MapFile,
    FileRead,
    FileWrite,
    // vm (vm_user)
    VmAllocate,
    VmDeallocate,
    VmProtect,
    // hw (Machine)
    HwTouch,
    HwRead,
    HwWrite,
    TimerTick,
    NumCalls,
};

constexpr unsigned kNumCalls = static_cast<unsigned>(Call::NumCalls);

/** Span name, "layer.operation". */
const char *callName(Call c);

/** One recorded interval of host time. */
struct Span
{
    static constexpr std::uint32_t kNoParent = ~0u;

    std::uint64_t startNs = 0; //!< host steady-clock ns
    std::uint64_t endNs = 0;
    std::uint32_t parent = kNoParent; //!< index of the parent span
    std::uint32_t step = 0;  //!< id shared by every span of one step
    std::uint32_t units = 0; //!< hardware pages or bytes the call moved
    Call call = Call::Step;
};

/** Host monotonic time in nanoseconds. */
inline std::uint64_t
hostNs()
{
    return std::uint64_t(std::chrono::duration_cast<
                             std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
}

/**
 * Self time of every span: its duration minus the part of it that its
 * direct children cover.  Children must lie inside their parent.
 */
std::vector<std::uint64_t> selfTimes(const std::vector<Span> &spans);

/** A tail percentile together with the sample count it came from. */
struct Tail
{
    double quantile = 0; //!< e.g. 0.99
    double value = 0;
    std::size_t samples = 0;
};

/**
 * The percentile rule: report @p want (e.g. 0.99), or, when there are
 * too few samples for that, the highest percentile that still has at
 * least ten samples beyond it.  Uses the nearest-rank definition, so
 * the value is always one of the samples.  With ten samples or fewer
 * no percentile qualifies and the maximum is reported.
 */
Tail tailPercentile(std::vector<double> samples, double want);

/** Median (nearest-rank, lower middle) of @p samples; 0 when empty. */
double median(std::vector<double> samples);

/** Per-pass call accounting and (when traced) span recording. */
class Ctx
{
  public:
    explicit Ctx(bool traced) : traced(traced) {}

    const bool traced;

    /**
     * Call @p f (a call into the library) as a @p c span.  Returns
     * what @p f returns.  A KernReturn result other than Success is
     * counted as a failed call.
     */
    template <typename F>
    auto
    call(Call c, std::uint64_t units, F &&f) -> decltype(f())
    {
        using R = decltype(f());
        ++attempted;
        std::uint64_t t0 = traced ? hostNs() : 0;
        if constexpr (std::is_void_v<R>) {
            f();
            if (traced)
                record(c, units, t0);
        } else {
            R r = f();
            if (traced)
                record(c, units, t0);
            if constexpr (std::is_same_v<R, mach::KernReturn>) {
                if (r != mach::KernReturn::Success)
                    fail(callName(c), int(r));
            }
            return r;
        }
    }

    /** An output check; counts as one attempted call. */
    bool check(bool ok, const char *what);

    /** Count a call that produced no usable result (e.g. a null task). */
    void fail(const char *what, int code);

    /** @name Steps @{ */
    void beginStep();
    void endStep();
    /** @} */

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;

    std::vector<double> stepNs; //!< host latency of every step
    std::vector<Span> spans;    //!< traced passes only

  private:
    void record(Call c, std::uint64_t units, std::uint64_t t0);

    std::uint64_t stepStart = 0;
    std::uint32_t stepId = 0;
    std::uint32_t stepSpan = Span::kNoParent;
};

} // namespace perfbench

#endif // PERFBENCH_CTX_HH
