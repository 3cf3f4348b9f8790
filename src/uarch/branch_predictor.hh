/**
 * @file
 * Branch predictor model (gshare, with bimodal as its zero-history
 * case), supplying the branch-misprediction events of the
 * Architectural feature family.
 */

#ifndef RHMD_UARCH_BRANCH_PREDICTOR_HH
#define RHMD_UARCH_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhmd::uarch
{

/**
 * Gshare predictor: 2-bit saturating counters indexed by the branch
 * pc xor the global branch history. With history_bits = 0 the index
 * is the low pc bits alone, which is the bimodal predictor.
 */
class BranchPredictor
{
  public:
    /**
     * @param table_bits   log2 of the counter-table size.
     * @param history_bits global-history length (<= table_bits);
     *                     0 selects bimodal.
     */
    explicit BranchPredictor(std::uint32_t table_bits = 12,
                             std::uint32_t history_bits = 0);

    /** Predict the direction of the branch at @p pc. */
    bool predict(std::uint64_t pc) const { return counters_[index(pc)] >= 2; }

    /** Train with the resolved direction. */
    void
    update(std::uint64_t pc, bool taken)
    {
        // Saturating 2-bit counter step, [taken][counter].
        static constexpr std::uint8_t kNext[2][4] = {{0, 0, 1, 2},
                                                     {1, 2, 3, 3}};
        std::uint8_t &counter = counters_[index(pc)];
        counter = kNext[taken][counter];
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    }

    /** Clear all state. */
    void reset();

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        // Drop the low 2 bits (branch alignment) before indexing.
        return static_cast<std::size_t>(((pc >> 2) ^ history_) &
                                        tableMask_);
    }

    std::uint64_t tableMask_;
    std::uint64_t historyMask_;
    std::uint64_t history_ = 0;  ///< kept masked to historyMask_
    std::vector<std::uint8_t> counters_;
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_BRANCH_PREDICTOR_HH
