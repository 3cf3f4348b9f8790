/**
 * @file
 * Shared benchmark helpers (bench.hh).
 */

#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "ml/serialize.hh"
#include "support/metrics.hh"

namespace rhmd::benchmark
{

namespace
{
bool g_tracing = false;
} // namespace

void
setTracing(bool on)
{
    g_tracing = on;
}

Span::Span(const char *name)
{
    if (g_tracing)
        span_.emplace(name);
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    // A check that ran twice keeps its worst outcome.
    auto [it, inserted] = checks.try_emplace(name, ok);
    if (!inserted)
        it->second = it->second && ok;
    if (!ok)
        std::fprintf(stderr, "check FAILED: %s %s\n", name.c_str(),
                     detail.c_str());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (idx >= values.size())
        idx = values.size() - 1;
    return values[idx];
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Digest::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Digest::window(const features::RawWindow &w)
{
    for (std::uint32_t c : w.opcodeCounts)
        u64(c);
    for (std::uint32_t c : w.memDeltaBins)
        u64(c);
    for (std::uint64_t e : w.events)
        u64(e);
    u64(w.instCount);
    f64(w.cycles);
    f64(w.injectedFrac);
    u64(w.truncated ? 1 : 0);
}

void
Digest::program(const features::ProgramFeatures &prog)
{
    str(prog.name);
    u64(prog.malware ? 1 : 0);
    u64(prog.family);
    for (const auto &[period, windows] : prog.byPeriod) {
        u64(period);
        u64(windows.size());
        for (const features::RawWindow &w : windows)
            window(w);
    }
}

std::string
Digest::hex() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

bool
sameWindow(const features::RawWindow &a, const features::RawWindow &b)
{
    return a.opcodeCounts == b.opcodeCounts &&
           a.memDeltaBins == b.memDeltaBins && a.events == b.events &&
           a.instCount == b.instCount &&
           std::bit_cast<std::uint64_t>(a.cycles) ==
               std::bit_cast<std::uint64_t>(b.cycles) &&
           std::bit_cast<std::uint64_t>(a.injectedFrac) ==
               std::bit_cast<std::uint64_t>(b.injectedFrac) &&
           a.truncated == b.truncated;
}

std::string
poolDigest(const core::Rhmd &pool,
           const std::vector<const features::RawWindow *> &probe)
{
    Digest d;
    for (const auto &det : pool.detectors()) {
        d.str(det->describe());
        d.f64(det->threshold());
        std::ostringstream model;
        if (ml::trySaveModel(det->classifier(), model).isOk()) {
            d.str(model.str());
            std::ostringstream standardizer;
            const support::Status st =
                ml::trySaveStandardizer(det->standardizer(), standardizer);
            d.str(st.isOk() ? standardizer.str() : st.toString());
        } else {
            for (double score : det->scoreWindows(probe))
                d.f64(score);
        }
    }
    for (double p : pool.policy())
        d.f64(p);
    return d.hex();
}

features::FeatureSpec
spec(features::FeatureKind kind, std::uint32_t period)
{
    features::FeatureSpec s;
    s.kind = kind;
    s.period = period;
    return s;
}

std::vector<std::size_t>
malwareOf(const features::FeatureCorpus &corpus,
          const std::vector<std::size_t> &idx)
{
    std::vector<std::size_t> out;
    for (std::size_t i : idx)
        if (corpus.programs[i].malware)
            out.push_back(i);
    return out;
}

std::vector<std::size_t>
benignOf(const features::FeatureCorpus &corpus,
         const std::vector<std::size_t> &idx)
{
    std::vector<std::size_t> out;
    for (std::size_t i : idx)
        if (!corpus.programs[i].malware)
            out.push_back(i);
    return out;
}

std::vector<const features::RawWindow *>
windowsOf(const features::FeatureCorpus &corpus,
          const std::vector<std::size_t> &idx, std::uint32_t period)
{
    std::vector<const features::RawWindow *> out;
    for (std::size_t i : idx)
        for (const features::RawWindow &w : corpus.programs[i].windows(period))
            out.push_back(&w);
    return out;
}

std::uint64_t
counter(const char *name)
{
    return support::metrics().counterValue(name);
}

std::unique_ptr<core::Rhmd>
trainPool(LayerTimes &layers, const std::string &algorithm,
          const std::vector<features::FeatureSpec> &specs,
          const features::FeatureCorpus &corpus,
          const std::vector<std::size_t> &train_idx, std::uint64_t seed)
{
    const Span span("ml.train");
    const double t0 = now();
    auto pool = core::buildRhmd(algorithm, specs, corpus, train_idx, 16,
                                seed);
    layers.train[algorithm] += now() - t0;
    double rows = 0.0;
    for (const features::FeatureSpec &s : specs)
        rows += static_cast<double>(
            windowsOf(corpus, train_idx, s.period).size());
    layers.trainRows[algorithm] += rows;
    return pool;
}

void
timeScoring(LayerTimes &layers, const std::string &algorithm,
            const std::vector<std::unique_ptr<core::Hmd>> &detectors,
            const std::vector<const features::RawWindow *> &probe)
{
    if (probe.empty() || detectors.empty())
        return;
    const Span span("ml.score");
    // Several passes so the figure is not dominated by one cold pass.
    constexpr int kPasses = 5;
    std::vector<double> per_window;
    for (int pass = 0; pass < kPasses; ++pass) {
        const double t0 = now();
        for (const auto &det : detectors)
            det->scoreWindows(probe);
        per_window.push_back((now() - t0) * 1e9 /
                             static_cast<double>(probe.size() *
                                                 detectors.size()));
    }
    layers.scoreNs[algorithm] = median(per_window);
}

double
poolTaskSeconds()
{
    return support::metrics()
        .histogram("pool.task_seconds", "per-task wall time",
                   {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0},
                   support::MetricDomain::Timing)
        .sum();
}

} // namespace rhmd::benchmark
