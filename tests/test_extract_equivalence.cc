/**
 * @file
 * Bit-equality of the fast trace -> uarch -> features loop against
 * the loop it replaced. The file holds test-only copies of the
 * Way-struct Cache, the virtual Bimodal/Gshare predictors,
 * PerfMonitor::step, CpiModel::account and the per-period
 * FeatureSession::consume, and checks that the library's SoA cache
 * (with its MRU-line shortcut), single gshare-class predictor,
 * branchless event bumps, folded CPI table and cumulative window
 * histograms give the same hits, events, cycles and RawWindows, bit
 * for bit (memcmp), on seeded random DynInst streams and on
 * generated programs.
 *
 * A golden FNV-1a over every window of a small "standard" preset
 * subset pins the extracted content itself, so a change that moves
 * reference and library together still fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "corpus/cache.hh"
#include "features/corpus.hh"
#include "features/extractor.hh"
#include "support/rng.hh"
#include "trace/execution.hh"
#include "trace/generator.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/cpi_model.hh"
#include "uarch/perf_counters.hh"

namespace
{

using namespace rhmd;
using features::RawWindow;
using trace::DynInst;
using trace::OpClass;
using uarch::Event;
using uarch::EventCounts;

// --- Reference cache: 24-byte Way structs, verbatim ---------------

class RefCache
{
  public:
    explicit RefCache(const uarch::CacheConfig &config) : config_(config)
    {
        const std::uint32_t lines = config_.sizeBytes / config_.lineBytes;
        numSets_ = lines / config_.assoc;
        lineShift_ = static_cast<std::uint32_t>(
            std::countr_zero(config_.lineBytes));
        ways_.assign(static_cast<std::size_t>(numSets_) * config_.assoc,
                     {});
    }

    bool
    accessLine(std::uint64_t addr)
    {
        ++tick_;
        const std::uint64_t line = addr >> lineShift_;
        const std::uint32_t set =
            static_cast<std::uint32_t>(line & (numSets_ - 1));
        const std::uint64_t tag = line >> std::countr_zero(numSets_);

        Way *base = &ways_[static_cast<std::size_t>(set) * config_.assoc];
        Way *victim = base;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = tick_;
                ++hits_;
                return true;
            }
            if (!way.valid) {
                victim = &way;
            } else if (victim->valid && way.lastUse < victim->lastUse) {
                victim = &way;
            }
        }

        ++misses_;
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = tick_;
        return false;
    }

    std::uint32_t
    access(std::uint64_t addr, std::uint32_t size)
    {
        if (size == 0)
            size = 1;
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last = (addr + size - 1) >> lineShift_;
        std::uint32_t line_misses = 0;
        for (std::uint64_t line = first; line <= last; ++line) {
            if (!accessLine(line << lineShift_))
                ++line_misses;
        }
        return line_misses;
    }

    void
    reset()
    {
        for (Way &way : ways_)
            way = {};
        tick_ = 0;
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    uarch::CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

// --- Reference predictors: virtual interface, verbatim ------------

class RefPredictor
{
  public:
    virtual ~RefPredictor() = default;
    virtual bool predict(std::uint64_t pc) const = 0;
    virtual void update(std::uint64_t pc, bool taken) = 0;
    virtual void reset() = 0;
};

void
refTrain(std::uint8_t &counter, bool taken)
{
    if (taken) {
        if (counter < 3)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
}

class RefBimodal : public RefPredictor
{
  public:
    explicit RefBimodal(std::uint32_t table_bits) : tableBits_(table_bits)
    {
        counters_.assign(std::size_t{1} << tableBits_, 1);
    }

    bool
    predict(std::uint64_t pc) const override
    {
        return counters_[index(pc)] >= 2;
    }

    void
    update(std::uint64_t pc, bool taken) override
    {
        refTrain(counters_[index(pc)], taken);
    }

    void reset() override { counters_.assign(counters_.size(), 1); }

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        return (pc >> 2) & ((std::size_t{1} << tableBits_) - 1);
    }

    std::uint32_t tableBits_;
    std::vector<std::uint8_t> counters_;
};

class RefGshare : public RefPredictor
{
  public:
    RefGshare(std::uint32_t table_bits, std::uint32_t history_bits)
        : tableBits_(table_bits), historyBits_(history_bits)
    {
        counters_.assign(std::size_t{1} << tableBits_, 1);
    }

    bool
    predict(std::uint64_t pc) const override
    {
        return counters_[index(pc)] >= 2;
    }

    void
    update(std::uint64_t pc, bool taken) override
    {
        refTrain(counters_[index(pc)], taken);
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    void
    reset() override
    {
        counters_.assign(counters_.size(), 1);
        history_ = 0;
    }

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        const std::uint64_t mask = (std::uint64_t{1} << tableBits_) - 1;
        const std::uint64_t hist_mask =
            (std::uint64_t{1} << historyBits_) - 1;
        return static_cast<std::size_t>(
            ((pc >> 2) ^ (history_ & hist_mask)) & mask);
    }

    std::uint32_t tableBits_;
    std::uint32_t historyBits_;
    std::uint64_t history_ = 0;
    std::vector<std::uint8_t> counters_;
};

// --- Reference monitoring unit: PerfMonitor::step, verbatim -------

class RefMonitor
{
  public:
    explicit RefMonitor(const uarch::PmuConfig &config)
        : config_(config),
          icache_(config.icache),
          dcache_(config.dcache),
          bimodal_(config.predictorTableBits),
          gshare_(config.predictorTableBits, config.predictorTableBits)
    {
    }

    uarch::StepOutcome
    step(const DynInst &inst)
    {
        uarch::StepOutcome outcome;
        outcome.icacheMisses = icache_.access(inst.pc, inst.size);
        bump(Event::ICacheMisses, outcome.icacheMisses);
        if (inst.isLoad || inst.isStore) {
            if (inst.isLoad)
                bump(Event::Loads);
            if (inst.isStore)
                bump(Event::Stores);
            outcome.dcacheMisses =
                dcache_.access(inst.addr, inst.accessSize);
            bump(Event::DCacheMisses, outcome.dcacheMisses);
            if (inst.accessSize > 1 &&
                (inst.addr % inst.accessSize) != 0) {
                outcome.unaligned = true;
                bump(Event::Unaligned);
            }
        }
        if (inst.isCondBranch) {
            bump(Event::CondBranches);
            RefPredictor &pred = config_.useGshare
                ? static_cast<RefPredictor &>(gshare_)
                : static_cast<RefPredictor &>(bimodal_);
            outcome.mispredicted = pred.predict(inst.pc) != inst.taken;
            if (outcome.mispredicted)
                bump(Event::Mispredicts);
            pred.update(inst.pc, inst.taken);
        }
        if (inst.isBranch && inst.taken)
            bump(Event::TakenBranches);
        switch (inst.op) {
          case OpClass::Call:
            bump(Event::Calls);
            break;
          case OpClass::Ret:
            bump(Event::Returns);
            break;
          case OpClass::SystemOp:
            bump(Event::Syscalls);
            break;
          case OpClass::Xchg:
            bump(Event::Atomics);
            break;
          default:
            break;
        }
        return outcome;
    }

    const EventCounts &counts() const { return counts_; }

    EventCounts
    read() const
    {
        EventCounts snapshot = counts_;
        if (readHook)
            readHook(snapshot);
        return snapshot;
    }

    void
    reset()
    {
        counts_.fill(0);
        icache_.reset();
        dcache_.reset();
        bimodal_.reset();
        gshare_.reset();
    }

    uarch::CounterReadHook readHook;

  private:
    void
    bump(Event event, std::uint64_t n = 1)
    {
        counts_[static_cast<std::size_t>(event)] += n;
    }

    uarch::PmuConfig config_;
    RefCache icache_;
    RefCache dcache_;
    RefBimodal bimodal_;
    RefGshare gshare_;
    EventCounts counts_{};
};

// --- Reference cycle model: CpiModel::account, verbatim -----------

class RefCpi
{
  public:
    explicit RefCpi(const uarch::CpiConfig &config = {}) : config_(config)
    {
    }

    void
    account(const DynInst &inst, const uarch::StepOutcome &outcome)
    {
        ++instructions_;
        const auto &info = trace::opInfo(inst.op);
        const double base = 1.0 / config_.issueWidth;
        const double latency = info.latency > 2
            ? static_cast<double>(info.latency) * 0.5
            : 0.0;
        double stall = 0.0;
        stall += outcome.dcacheMisses * config_.dcacheMissPenalty;
        stall += outcome.icacheMisses * config_.icacheMissPenalty;
        if (outcome.mispredicted)
            stall += config_.mispredictPenalty;
        if (outcome.unaligned)
            stall += config_.unalignedPenalty;
        cycles_ += std::max(base, latency) + stall;
    }

    double cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_; }

  private:
    uarch::CpiConfig config_;
    double cycles_ = 0.0;
    std::uint64_t instructions_ = 0;
};

// --- Reference session: per-period histograms, verbatim -----------

class RefSession : public trace::TraceSink
{
  public:
    RefSession(std::vector<std::uint32_t> periods,
               const uarch::PmuConfig &pmu)
        : monitor_(pmu)
    {
        std::sort(periods.begin(), periods.end());
        accums_.resize(periods.size());
        for (std::size_t i = 0; i < periods.size(); ++i)
            accums_[i].period = periods[i];
    }

    void
    consume(const DynInst &inst) override
    {
        const uarch::StepOutcome outcome = monitor_.step(inst);
        cpi_.account(inst, outcome);
        ++totalInsts_;
        std::size_t delta_bin = features::kNumMemBins;
        if (inst.isLoad || inst.isStore) {
            if (haveLastAddr_)
                delta_bin = features::memDeltaBin(lastAddr_, inst.addr);
            lastAddr_ = inst.addr;
            haveLastAddr_ = true;
        }
        const auto op_index = static_cast<std::size_t>(inst.op);
        for (PeriodAccum &accum : accums_) {
            RawWindow &win = accum.current;
            ++win.opcodeCounts[op_index];
            if (delta_bin < features::kNumMemBins)
                ++win.memDeltaBins[delta_bin];
            if (inst.injected)
                ++accum.injectedInWindow;
            if (++win.instCount < accum.period)
                continue;
            closeWindow(accum, false);
        }
    }

    void
    finish()
    {
        for (PeriodAccum &accum : accums_) {
            if (accum.current.instCount == 0)
                continue;
            closeWindow(accum, true);
        }
    }

    const std::vector<RawWindow> &
    windows(std::uint32_t period) const
    {
        for (const PeriodAccum &accum : accums_) {
            if (accum.period == period)
                return accum.done;
        }
        ADD_FAILURE() << "period " << period << " not configured";
        return accums_.front().done;
    }

    double totalCycles() const { return cpi_.cycles(); }
    std::uint64_t totalInsts() const { return totalInsts_; }
    RefMonitor &monitor() { return monitor_; }

  private:
    struct PeriodAccum
    {
        std::uint32_t period = 0;
        RawWindow current;
        std::vector<RawWindow> done;
        EventCounts eventBase{};
        double cycleBase = 0.0;
        std::uint64_t injectedInWindow = 0;
    };

    void
    closeWindow(PeriodAccum &accum, bool truncated)
    {
        RawWindow &win = accum.current;
        const EventCounts cumulative = monitor_.read();
        uarch::saturatingDelta(cumulative, accum.eventBase, win.events);
        accum.eventBase = cumulative;
        win.cycles = cpi_.cycles() - accum.cycleBase;
        accum.cycleBase = cpi_.cycles();
        win.injectedFrac =
            static_cast<double>(accum.injectedInWindow) /
            static_cast<double>(win.instCount);
        accum.injectedInWindow = 0;
        win.truncated = truncated;
        accum.done.push_back(win);
        win = RawWindow{};
    }

    RefMonitor monitor_;
    RefCpi cpi_;
    std::vector<PeriodAccum> accums_;
    bool haveLastAddr_ = false;
    std::uint64_t lastAddr_ = 0;
    std::uint64_t totalInsts_ = 0;
};

// --- Comparison helpers -------------------------------------------

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Field-wise memcmp (RawWindow's tail padding is not compared). */
bool
sameWindow(const RawWindow &a, const RawWindow &b)
{
    return std::memcmp(a.opcodeCounts.data(), b.opcodeCounts.data(),
                       sizeof(a.opcodeCounts)) == 0 &&
           std::memcmp(a.memDeltaBins.data(), b.memDeltaBins.data(),
                       sizeof(a.memDeltaBins)) == 0 &&
           std::memcmp(a.events.data(), b.events.data(),
                       sizeof(a.events)) == 0 &&
           a.instCount == b.instCount && sameBits(a.cycles, b.cycles) &&
           sameBits(a.injectedFrac, b.injectedFrac) &&
           a.truncated == b.truncated;
}

void
expectSameWindows(const std::vector<RawWindow> &got,
                  const std::vector<RawWindow> &want,
                  const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t w = 0; w < want.size(); ++w)
        ASSERT_TRUE(sameWindow(got[w], want[w])) << label << " window " << w;
}

// --- Streams ------------------------------------------------------

const std::uint8_t kAccessSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16,
                                     24, 64, 100, 255};

/**
 * Adversarial DynInst stream: pcs that repeat a line (the MRU
 * shortcut) or jump across conflicting sets, accesses of every size
 * class (zero, odd, line-spanning), memory flags independent of the
 * opcode (both set, neither), and random branch and injection bits.
 */
std::vector<DynInst>
randomStream(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<DynInst> out(n);
    std::uint64_t pc = 0x400000;
    std::uint64_t addr = 0x10000000;
    for (DynInst &inst : out) {
        const double r = rng.uniform();
        if (r < 0.6)
            pc += 1 + rng.below(6);  // mostly the same line
        else if (r < 0.9)
            pc = 0x400000 + rng.below(64) * 4096 + rng.below(64);
        else
            pc = rng.next() & 0xffffffffffULL;
        inst.pc = pc;
        inst.op = static_cast<OpClass>(rng.below(trace::kNumOpClasses));
        inst.size = static_cast<std::uint8_t>(rng.below(18));
        inst.isLoad = rng.chance(0.35);
        inst.isStore = rng.chance(0.2);
        const double a = rng.uniform();
        if (a < 0.5)
            addr += rng.below(16);
        else if (a < 0.8)
            addr = 0x10000000 + rng.below(512) * 4096 + rng.below(128);
        else
            addr = rng.next();
        inst.addr = addr;
        inst.accessSize = kAccessSizes[rng.below(std::size(kAccessSizes))];
        inst.isCondBranch = rng.chance(0.15);
        inst.isBranch = inst.isCondBranch || rng.chance(0.05);
        inst.taken = rng.chance(inst.isCondBranch ? 0.6 : 0.5);
        inst.target = rng.next();
        inst.injected = rng.chance(0.1);
    }
    return out;
}

/** The committed streams of a few small generated programs. */
std::vector<std::vector<DynInst>>
programStreams(std::uint64_t insts)
{
    struct Recorder : trace::TraceSink
    {
        std::vector<DynInst> stream;
        void consume(const DynInst &inst) override
        {
            stream.push_back(inst);
        }
    };
    trace::GeneratorConfig gen;
    gen.seed = 99;
    gen.benignCount = 2;
    gen.malwareCount = 2;
    std::vector<std::vector<DynInst>> out;
    for (const trace::Program &program :
         trace::ProgramGenerator(gen).generateCorpus()) {
        Recorder recorder;
        trace::Executor(program, program.seed ^ 0x5eedULL)
            .run(insts, recorder);
        out.push_back(std::move(recorder.stream));
    }
    return out;
}

const uarch::CacheConfig kGeometries[] = {
    {1024, 1, 64},   // direct-mapped, 16 sets
    {3072, 3, 64},   // 3-way, 16 sets
    {32768, 8, 64},  // the default L1
    {512, 8, 64},    // fully associative, one set
    {2048, 8, 2},    // tiny lines: most accesses span
};

// --- Cache --------------------------------------------------------

TEST(CacheEquivalence, AccessAndAccessLineMatchWayStructCache)
{
    for (const uarch::CacheConfig &geometry : kGeometries) {
        const std::string label =
            "assoc " + std::to_string(geometry.assoc) + " line " +
            std::to_string(geometry.lineBytes);
        uarch::Cache cache(geometry);
        RefCache ref(geometry);
        const std::vector<DynInst> stream = randomStream(30000, 11);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const DynInst &inst = stream[i];
            if (i == stream.size() / 2) {  // reset mid-stream
                cache.reset();
                ref.reset();
            }
            ASSERT_EQ(cache.access(inst.pc, inst.size),
                      ref.access(inst.pc, inst.size))
                << label << " fetch " << i;
            ASSERT_EQ(cache.access(inst.addr, inst.accessSize),
                      ref.access(inst.addr, inst.accessSize))
                << label << " data " << i;
            if (i % 7 == 0) {
                ASSERT_EQ(cache.accessLine(inst.addr ^ 0x40),
                          ref.accessLine(inst.addr ^ 0x40))
                    << label << " line " << i;
            }
        }
        EXPECT_EQ(cache.hits(), ref.hits()) << label;
        EXPECT_EQ(cache.misses(), ref.misses()) << label;
        EXPECT_GT(cache.hits(), 0u) << label;
        EXPECT_GT(cache.misses(), 0u) << label;
    }
}

TEST(CacheEquivalence, MruRepeatsStillAgeTheLru)
{
    // A run of hits on one line must still refresh its LRU stamp, or
    // the next conflict would evict it instead of the other way.
    const uarch::CacheConfig geometry{128, 2, 64};  // one set, 2 ways
    uarch::Cache cache(geometry);
    RefCache ref(geometry);
    const std::uint64_t addrs[] = {0x0000, 0x1000, 0x1000, 0x0000,
                                   0x0000, 0x0004, 0x2000, 0x1000,
                                   0x0000, 0x2000, 0x2000, 0x1000};
    for (std::uint64_t a : addrs)
        ASSERT_EQ(cache.accessLine(a), ref.accessLine(a)) << a;
    EXPECT_EQ(cache.hits(), ref.hits());
}

// --- Branch predictor ---------------------------------------------

TEST(PredictorEquivalence, GshareAndBimodalMatchVirtualPair)
{
    struct Shape
    {
        std::uint32_t tableBits;
        std::uint32_t historyBits;  // 0: compare against RefBimodal
    };
    const Shape shapes[] = {{12, 0}, {10, 0}, {12, 12}, {12, 8}, {4, 3}};
    for (const Shape &shape : shapes) {
        uarch::BranchPredictor pred(shape.tableBits, shape.historyBits);
        std::unique_ptr<RefPredictor> ref;
        if (shape.historyBits == 0)
            ref = std::make_unique<RefBimodal>(shape.tableBits);
        else
            ref = std::make_unique<RefGshare>(shape.tableBits,
                                              shape.historyBits);
        Rng rng(shape.tableBits * 31 + shape.historyBits);
        for (int i = 0; i < 40000; ++i) {
            if (i == 20000) {
                pred.reset();
                ref->reset();
            }
            const std::uint64_t pc = 0x400000 + rng.below(600) * 4;
            const bool taken = rng.chance(pc % 3 == 0 ? 0.9 : 0.4);
            ASSERT_EQ(pred.predict(pc), ref->predict(pc))
                << shape.tableBits << "/" << shape.historyBits << " @" << i;
            pred.update(pc, taken);
            ref->update(pc, taken);
        }
    }
}

// --- Monitoring unit and cycle model ------------------------------

void
checkMonitor(const std::vector<DynInst> &stream,
             const uarch::PmuConfig &config, const std::string &label)
{
    uarch::PerfMonitor pmu(config);
    RefMonitor ref(config);
    uarch::CpiConfig cpi_config;
    cpi_config.issueWidth = 3.0;  // 1/3 is inexact: the table must fold it
    uarch::CpiModel cpi(cpi_config);
    RefCpi ref_cpi(cpi_config);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i == stream.size() * 2 / 3) {
            pmu.reset();
            ref.reset();
        }
        const uarch::StepOutcome got = pmu.step(stream[i]);
        const uarch::StepOutcome want = ref.step(stream[i]);
        ASSERT_EQ(got.icacheMisses, want.icacheMisses) << label << " @" << i;
        ASSERT_EQ(got.dcacheMisses, want.dcacheMisses) << label << " @" << i;
        ASSERT_EQ(got.mispredicted, want.mispredicted) << label << " @" << i;
        ASSERT_EQ(got.unaligned, want.unaligned) << label << " @" << i;
        ASSERT_EQ(pmu.counts(), ref.counts()) << label << " @" << i;
        cpi.account(stream[i], got);
        ref_cpi.account(stream[i], want);
        ASSERT_TRUE(sameBits(cpi.cycles(), ref_cpi.cycles()))
            << label << " @" << i;
    }
    EXPECT_EQ(cpi.instructions(), ref_cpi.instructions()) << label;
}

TEST(MonitorEquivalence, RandomStreamsEveryGeometryBothPredictors)
{
    const std::vector<DynInst> stream = randomStream(40000, 5);
    for (const uarch::CacheConfig &geometry : kGeometries) {
        for (bool gshare : {true, false}) {
            uarch::PmuConfig config;
            config.icache = geometry;
            config.dcache = geometry;
            config.useGshare = gshare;
            checkMonitor(stream, config,
                         "assoc " + std::to_string(geometry.assoc) +
                             (gshare ? " gshare" : " bimodal"));
        }
    }
}

TEST(MonitorEquivalence, GeneratedPrograms)
{
    for (const std::vector<DynInst> &stream : programStreams(30000)) {
        for (bool gshare : {true, false}) {
            uarch::PmuConfig config;
            config.useGshare = gshare;
            config.predictorTableBits = 10;
            checkMonitor(stream, config, gshare ? "gshare" : "bimodal");
        }
    }
}

TEST(CpiEquivalence, EveryOpcodeAndOutcomeCombination)
{
    uarch::CpiConfig config;
    config.issueWidth = 0.7;  // base above some latencies
    config.unalignedPenalty = 0.1;
    uarch::CpiModel cpi(config);
    RefCpi ref(config);
    for (std::size_t op = 0; op < trace::kNumOpClasses; ++op) {
        DynInst inst;
        inst.op = static_cast<OpClass>(op);
        for (int bits = 0; bits < 16; ++bits) {
            uarch::StepOutcome outcome;
            outcome.dcacheMisses = static_cast<std::uint32_t>(bits & 3);
            outcome.icacheMisses = static_cast<std::uint32_t>(bits >> 3);
            outcome.mispredicted = (bits & 4) != 0;
            outcome.unaligned = (bits & 8) != 0;
            cpi.account(inst, outcome);
            ref.account(inst, outcome);
            ASSERT_TRUE(sameBits(cpi.cycles(), ref.cycles()))
                << "op " << op << " bits " << bits;
        }
    }
}

// --- Feature session ----------------------------------------------

/**
 * A stateful read hook: it perturbs every read by its call index, so
 * the windows match only if both sessions read the monitor at the
 * same instructions, in the same period order.
 */
uarch::CounterReadHook
countingHook()
{
    auto calls = std::make_shared<std::uint64_t>(0);
    return [calls](EventCounts &counts) {
        ++*calls;
        counts[*calls % uarch::kNumEvents] += *calls;
        if (*calls % 5 == 0)
            counts[0] = 0;  // drives saturatingDelta's clamp
    };
}

void
checkSession(const std::vector<DynInst> &stream,
             const std::vector<std::uint32_t> &periods, bool partial,
             bool hook, const std::string &label)
{
    features::FeatureSession session(periods);
    RefSession ref(periods, {});
    if (hook) {
        session.monitor().setReadHook(countingHook());
        ref.monitor().readHook = countingHook();
    }
    for (const DynInst &inst : stream) {
        session.consume(inst);
        ref.consume(inst);
    }
    if (partial) {
        session.finish();
        ref.finish();
        session.finish();  // idempotent
        ref.finish();
    }
    EXPECT_EQ(session.totalInsts(), ref.totalInsts()) << label;
    EXPECT_TRUE(sameBits(session.totalCycles(), ref.totalCycles()))
        << label;
    for (std::uint32_t period : periods) {
        expectSameWindows(session.windows(period), ref.windows(period),
                          label + " period " + std::to_string(period));
    }
}

const std::vector<std::vector<std::uint32_t>> kPeriodSets = {
    {5000}, {5000, 10000}, {1, 7}, {10000, 5000, 3}};

TEST(SessionEquivalence, RandomStreamsEveryPeriodSet)
{
    // 23456 instructions: no period divides it, so every period has
    // a partial tail for finish() to flush.
    const std::vector<DynInst> stream = randomStream(23456, 17);
    for (const auto &periods : kPeriodSets) {
        for (bool partial : {false, true}) {
            for (bool hook : {false, true}) {
                std::string label = "periods";
                for (std::uint32_t p : periods)
                    label += " " + std::to_string(p);
                label += partial ? " partial" : "";
                label += hook ? " hook" : "";
                checkSession(stream, periods, partial, hook, label);
            }
        }
    }
}

TEST(SessionEquivalence, GeneratedPrograms)
{
    for (const std::vector<DynInst> &stream : programStreams(30000)) {
        for (const auto &periods : kPeriodSets)
            checkSession(stream, periods, true, false, "program");
    }
}

TEST(SessionEquivalence, StreamEndingOnBoundaryFlushesNothing)
{
    const std::vector<DynInst> stream = randomStream(10000, 23);
    checkSession(stream, {5000, 10000}, true, false, "exact");
    features::FeatureSession session({5000, 10000});
    for (const DynInst &inst : stream)
        session.consume(inst);
    session.finish();
    EXPECT_EQ(session.windows(5000).size(), 2u);
    EXPECT_EQ(session.windows(10000).size(), 1u);
    EXPECT_FALSE(session.windows(10000).back().truncated);
}

// --- Golden content -----------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t
fnv(std::uint64_t h, std::uint64_t value)
{
    h ^= value;
    return h * kFnvPrime;
}

/** FNV-1a over every field of every window, in order. */
std::uint64_t
hashWindows(std::uint64_t h, const std::vector<RawWindow> &windows)
{
    for (const RawWindow &win : windows) {
        for (std::uint32_t c : win.opcodeCounts)
            h = fnv(h, c);
        for (std::uint32_t c : win.memDeltaBins)
            h = fnv(h, c);
        for (std::uint64_t c : win.events)
            h = fnv(h, c);
        h = fnv(h, win.instCount);
        h = fnv(h, std::bit_cast<std::uint64_t>(win.cycles));
        h = fnv(h, std::bit_cast<std::uint64_t>(win.injectedFrac));
        h = fnv(h, win.truncated ? 1 : 0);
    }
    return h;
}

TEST(ExtractGolden, StandardPresetSubsetWindowsArePinned)
{
    // Every 30th program of the smoke "standard" preset (benign and
    // malware), extracted exactly as the corpus pipeline does. The
    // pinned value was computed by the per-period extractor this
    // loop replaced; any drift in execution, uarch or windowing
    // changes it.
    const core::ExperimentConfig config =
        corpus::presetConfig("standard", /*smoke=*/true);
    const std::vector<trace::Program> programs =
        trace::ProgramGenerator(core::generatorConfigOf(config))
            .generateCorpus();
    const features::ExtractConfig extract = core::extractConfigOf(config);
    std::uint64_t h = kFnvOffset;
    std::size_t windows = 0;
    for (std::size_t i = 0; i < programs.size(); i += 30) {
        const features::ProgramFeatures features =
            features::extractProgram(programs[i], extract);
        for (std::uint32_t period : extract.periods) {
            h = hashWindows(h, features.windows(period));
            windows += features.windows(period).size();
        }
    }
    EXPECT_EQ(windows, 144u);
    EXPECT_EQ(h, 0x1bd7bb5961555fabULL) << std::hex << "got 0x" << h;
}

} // namespace
