/**
 * @file
 * Single-pass multi-period feature extraction implementation.
 */

#include "features/extractor.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rhmd::features
{

FeatureSession::FeatureSession(std::vector<std::uint32_t> periods,
                               const uarch::PmuConfig &pmu)
    : monitor_(pmu)
{
    fatal_if(periods.empty(), "FeatureSession needs at least one period");
    std::sort(periods.begin(), periods.end());
    fatal_if(std::adjacent_find(periods.begin(), periods.end()) !=
                 periods.end(),
             "FeatureSession periods must be unique");
    accums_.resize(periods.size());
    for (std::size_t i = 0; i < periods.size(); ++i) {
        fatal_if(periods[i] == 0, "collection period must be positive");
        accums_[i].period = periods[i];
    }
    nextClose_ = periods.front();
}

void
FeatureSession::consume(const trace::DynInst &inst)
{
    const uarch::StepOutcome outcome = monitor_.step(inst);
    cpi_.account(inst, outcome);

    std::size_t delta_bin = kNumMemBins;  // no access: the spare bin
    if (inst.isLoad || inst.isStore) {
        if (haveLastAddr_)
            delta_bin = memDeltaBin(lastAddr_, inst.addr);
        lastAddr_ = inst.addr;
        haveLastAddr_ = true;
    }
    ++opcodeTotals_[static_cast<std::size_t>(inst.op)];
    ++memBinTotals_[delta_bin];
    injectedTotal_ += inst.injected;

    if (++totalInsts_ == nextClose_)
        closeDueWindows();
}

void
FeatureSession::closeDueWindows()
{
    // Ascending period order, as the windows have always closed (an
    // installed read hook sees the same call sequence).
    nextClose_ = ~std::uint64_t{0};
    for (PeriodAccum &accum : accums_) {
        if (accum.startInst + accum.period == totalInsts_)
            closeWindow(accum, /*truncated=*/false);
        nextClose_ = std::min(nextClose_, accum.startInst + accum.period);
    }
}

void
FeatureSession::closeWindow(PeriodAccum &accum, bool truncated)
{
    RawWindow win;
    // Window boundary: every count is the cumulative session state
    // minus the snapshot at the window's start. read() routes
    // through the counter fault hook (if any), so sensor-path noise
    // lands in the extracted windows.
    for (std::size_t op = 0; op < trace::kNumOpClasses; ++op) {
        win.opcodeCounts[op] = static_cast<std::uint32_t>(
            opcodeTotals_[op] - accum.opcodeBase[op]);
    }
    for (std::size_t bin = 0; bin < kNumMemBins; ++bin) {
        win.memDeltaBins[bin] = static_cast<std::uint32_t>(
            memBinTotals_[bin] - accum.memBinBase[bin]);
    }
    std::copy_n(opcodeTotals_.begin(), trace::kNumOpClasses,
                accum.opcodeBase.begin());
    std::copy_n(memBinTotals_.begin(), kNumMemBins,
                accum.memBinBase.begin());

    const uarch::EventCounts cumulative = monitor_.read();
    uarch::saturatingDelta(cumulative, accum.eventBase, win.events);
    accum.eventBase = cumulative;
    win.instCount = totalInsts_ - accum.startInst;
    accum.startInst = totalInsts_;
    win.cycles = cpi_.cycles() - accum.cycleBase;
    accum.cycleBase = cpi_.cycles();
    win.injectedFrac =
        static_cast<double>(injectedTotal_ - accum.injectedBase) /
        static_cast<double>(win.instCount);
    accum.injectedBase = injectedTotal_;
    win.truncated = truncated;

    accum.done.push_back(win);
}

void
FeatureSession::finish()
{
    for (PeriodAccum &accum : accums_) {
        if (accum.startInst == totalInsts_)
            continue;  // the stream ended exactly on a boundary
        closeWindow(accum, /*truncated=*/true);
    }
}

const std::vector<RawWindow> &
FeatureSession::windows(std::uint32_t period) const
{
    for (const PeriodAccum &accum : accums_) {
        if (accum.period == period)
            return accum.done;
    }
    rhmd_panic("period ", period, " was not configured");
}

std::vector<RawWindow>
FeatureSession::takeWindows(std::uint32_t period)
{
    for (PeriodAccum &accum : accums_) {
        if (accum.period == period)
            return std::move(accum.done);
    }
    rhmd_panic("period ", period, " was not configured");
}

} // namespace rhmd::features
