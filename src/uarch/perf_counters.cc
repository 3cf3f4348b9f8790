/**
 * @file
 * Performance-monitoring unit implementation.
 */

#include "uarch/perf_counters.hh"

#include <bit>

#include "ml/kernels.hh"
#include "support/logging.hh"

namespace rhmd::uarch
{

void
saturatingDelta(const EventCounts &cumulative, const EventCounts &base,
                EventCounts &out)
{
    for (std::size_t e = 0; e < kNumEvents; ++e)
        out[e] = cumulative[e] >= base[e] ? cumulative[e] - base[e] : 0;
}

void
eventRates(const EventCounts &counts, double insts, double *out)
{
    double widened[kNumEvents];
    for (std::size_t e = 0; e < kNumEvents; ++e)
        widened[e] = static_cast<double>(counts[e]);
    ml::kernels().rateConvertF64(widened, kNumEvents, insts, out);
}

std::string_view
eventName(Event event)
{
    switch (event) {
      case Event::Loads: return "loads";
      case Event::Stores: return "stores";
      case Event::CondBranches: return "cond_branches";
      case Event::TakenBranches: return "taken_branches";
      case Event::Mispredicts: return "mispredicts";
      case Event::DCacheMisses: return "dcache_misses";
      case Event::ICacheMisses: return "icache_misses";
      case Event::Unaligned: return "unaligned";
      case Event::Calls: return "calls";
      case Event::Returns: return "returns";
      case Event::Syscalls: return "syscalls";
      case Event::Atomics: return "atomics";
      case Event::NumEvents: break;
    }
    rhmd_panic("bad event id");
}

namespace
{

/** The opcode-class event (Calls, Returns, ...) one opcode bumps. */
struct OpEvent
{
    std::uint8_t event = 0;
    std::uint8_t count = 0;  ///< 0 for opcodes with no such event
};

constexpr std::array<OpEvent, trace::kNumOpClasses> kOpEvents = [] {
    std::array<OpEvent, trace::kNumOpClasses> table{};
    auto set = [&table](trace::OpClass op, Event event) {
        table[static_cast<std::size_t>(op)] = {
            static_cast<std::uint8_t>(event), 1};
    };
    set(trace::OpClass::Call, Event::Calls);
    set(trace::OpClass::Ret, Event::Returns);
    set(trace::OpClass::SystemOp, Event::Syscalls);
    set(trace::OpClass::Xchg, Event::Atomics);
    return table;
}();

constexpr std::size_t
at(Event event)
{
    return static_cast<std::size_t>(event);
}

} // namespace

PerfMonitor::PerfMonitor(const PmuConfig &config)
    : icache_(config.icache),
      dcache_(config.dcache),
      predictor_(config.predictorTableBits,
                 config.useGshare ? config.predictorTableBits : 0)
{
    counts_.fill(0);
}

StepOutcome
PerfMonitor::step(const trace::DynInst &inst)
{
    StepOutcome outcome;

    // Instruction fetch.
    outcome.icacheMisses = icache_.access(inst.pc, inst.size);
    counts_[at(Event::ICacheMisses)] += outcome.icacheMisses;

    // Data access. Alignment is a mask test for the power-of-two
    // sizes every generated access has, a modulo otherwise.
    counts_[at(Event::Loads)] += inst.isLoad;
    counts_[at(Event::Stores)] += inst.isStore;
    if (inst.isLoad || inst.isStore) {
        outcome.dcacheMisses = dcache_.access(inst.addr, inst.accessSize);
        counts_[at(Event::DCacheMisses)] += outcome.dcacheMisses;
        const std::uint32_t size = inst.accessSize;
        if (size > 1) {
            const std::uint64_t offset = std::has_single_bit(size)
                ? inst.addr & (size - 1)
                : inst.addr % size;
            outcome.unaligned = offset != 0;
            counts_[at(Event::Unaligned)] += outcome.unaligned;
        }
    }

    // Control flow.
    if (inst.isCondBranch) {
        ++counts_[at(Event::CondBranches)];
        outcome.mispredicted = predictor_.predict(inst.pc) != inst.taken;
        counts_[at(Event::Mispredicts)] += outcome.mispredicted;
        predictor_.update(inst.pc, inst.taken);
    }
    counts_[at(Event::TakenBranches)] += inst.isBranch && inst.taken;

    const OpEvent op_event = kOpEvents[trace::opIndex(inst.op)];
    counts_[op_event.event] += op_event.count;

    return outcome;
}

EventCounts
PerfMonitor::read() const
{
    EventCounts snapshot = counts_;
    if (readHook_)
        readHook_(snapshot);
    return snapshot;
}

void
PerfMonitor::reset()
{
    counts_.fill(0);
    icache_.reset();
    dcache_.reset();
    predictor_.reset();
}

} // namespace rhmd::uarch
