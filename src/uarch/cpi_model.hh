/**
 * @file
 * A simple analytic cycle model: converts a committed instruction
 * stream plus its microarchitectural outcomes into estimated cycles.
 * Used to report Fig. 9's dynamic (time) overhead of injected
 * instructions, and by anyone who wants collection windows measured
 * in cycles rather than instructions.
 */

#ifndef RHMD_UARCH_CPI_MODEL_HH
#define RHMD_UARCH_CPI_MODEL_HH

#include <array>
#include <cstdint>

#include "trace/execution.hh"
#include "uarch/perf_counters.hh"

namespace rhmd::uarch
{

/** Penalty/throughput parameters of the modelled core. */
struct CpiConfig
{
    double issueWidth = 2.0;         ///< sustained instructions/cycle
    double dcacheMissPenalty = 20.0; ///< cycles per L1D miss
    double icacheMissPenalty = 12.0; ///< cycles per L1I miss
    double mispredictPenalty = 14.0; ///< cycles per branch mispredict
    double unalignedPenalty = 2.0;   ///< extra cycles per split access
};

/**
 * Accumulates an estimated cycle count. Long-latency opcodes
 * contribute their latency; everything else is bounded by issue
 * width; stall events add their penalties.
 */
class CpiModel
{
  public:
    explicit CpiModel(const CpiConfig &config = {});

    /** Account one instruction and its outcomes. */
    void
    account(const trace::DynInst &inst, const StepOutcome &outcome)
    {
        ++instructions_;
        // Adding 0.0 for an absent event leaves the sum's bits as they
        // were (the sum starts at +0.0 and so is never -0.0), so the
        // selects round exactly like skipping the add.
        double stall = 0.0;
        stall += outcome.dcacheMisses * config_.dcacheMissPenalty;
        stall += outcome.icacheMisses * config_.icacheMissPenalty;
        stall += outcome.mispredicted ? config_.mispredictPenalty : 0.0;
        stall += outcome.unaligned ? config_.unalignedPenalty : 0.0;
        cycles_ += issueCycles_[trace::opIndex(inst.op)] + stall;
    }

    /** Estimated cycles so far. */
    double cycles() const { return cycles_; }

    /** Committed instructions so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** Cycles per instruction so far (0 when empty). */
    double cpi() const;

    /** Zero the accumulators. */
    void reset();

  private:
    CpiConfig config_;
    /**
     * Per-opcode issue cost: max(1 / issueWidth, exposed latency),
     * where long-latency ops (latency > 2) are modelled as partially
     * overlapped and expose half their latency.
     */
    std::array<double, trace::kNumOpClasses> issueCycles_{};
    double cycles_ = 0.0;
    std::uint64_t instructions_ = 0;
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_CPI_MODEL_HH
