/**
 * @file
 * The performance-monitoring unit model: drives the cache and branch
 * predictor models with the committed instruction stream and counts
 * the architectural events the paper's Architectural feature family
 * collects.
 */

#ifndef RHMD_UARCH_PERF_COUNTERS_HH
#define RHMD_UARCH_PERF_COUNTERS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>

#include "trace/execution.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"

namespace rhmd::uarch
{

/** Architectural event identifiers (indices into EventCounts). */
enum class Event : std::uint8_t
{
    Loads,
    Stores,
    CondBranches,
    TakenBranches,
    Mispredicts,
    DCacheMisses,
    ICacheMisses,
    Unaligned,
    Calls,
    Returns,
    Syscalls,
    Atomics,
    NumEvents
};

/** Number of architectural events tracked. */
constexpr std::size_t kNumEvents =
    static_cast<std::size_t>(Event::NumEvents);

/** Display name of an event. */
std::string_view eventName(Event event);

/** Per-window event counters. */
using EventCounts = std::array<std::uint64_t, kNumEvents>;

/**
 * out[e] = cumulative[e] - base[e], saturating at zero. A noisy
 * sensor read can report fewer events than the previous snapshot; a
 * real counter delta never goes negative, so clamp instead of
 * wrapping (the window-boundary rule in FeatureSession).
 */
void saturatingDelta(const EventCounts &cumulative,
                     const EventCounts &base, EventCounts &out);

/**
 * out[e] = double(counts[e]) / insts for all kNumEvents events —
 * the Architectural feature family's count-to-rate conversion,
 * dispatched through the active simd kernel table. Bit-identical on
 * every target: the u64 -> double converts stay scalar and only the
 * independent per-event divides are vectorized.
 */
void eventRates(const EventCounts &counts, double insts, double *out);

/**
 * Mutating hook applied to every counter read on the sensor path.
 * The fault-injection layer (src/runtime/) installs hooks that model
 * hardware-induced read noise, quantized counters, and stuck-at
 * faults; production reads leave the hook empty.
 */
using CounterReadHook = std::function<void(EventCounts &)>;

/** Per-instruction microarchitectural outcome (feeds the CPI model). */
struct StepOutcome
{
    std::uint32_t dcacheMisses = 0;
    std::uint32_t icacheMisses = 0;
    bool mispredicted = false;
    bool unaligned = false;
};

/** Configuration of the modelled monitoring hardware. */
struct PmuConfig
{
    CacheConfig icache{32 * 1024, 8, 64};
    CacheConfig dcache{32 * 1024, 8, 64};
    std::uint32_t predictorTableBits = 12;
    bool useGshare = true;
};

/**
 * The monitoring unit: one instance per executing program. step()
 * consumes each committed instruction, updates the structural models,
 * and bumps the event counters. The feature extractor snapshots and
 * clears the counters at collection-window boundaries.
 */
class PerfMonitor
{
  public:
    explicit PerfMonitor(const PmuConfig &config = {});

    /** Account one committed instruction. */
    StepOutcome step(const trace::DynInst &inst);

    /** Current window's counters, as maintained internally. */
    const EventCounts &counts() const { return counts_; }

    /**
     * Counter snapshot as the sensor path observes it: the raw
     * counts passed through the read hook when one is installed.
     * This is what the feature extractor consumes, so an installed
     * fault model perturbs every downstream feature window.
     */
    EventCounts read() const;

    /** Install (or clear, with {}) the counter-read fault hook. */
    void setReadHook(CounterReadHook hook)
    {
        readHook_ = std::move(hook);
    }

    /** Zero the window counters (structural state persists). */
    void clearCounts() { counts_.fill(0); }

    /** Full reset: counters and structural state. */
    void reset();

  private:
    Cache icache_;
    Cache dcache_;
    BranchPredictor predictor_;  ///< gshare, or bimodal (0 history)
    EventCounts counts_{};
    CounterReadHook readHook_;
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_PERF_COUNTERS_HH
