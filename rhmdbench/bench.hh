/**
 * @file
 * Shared pieces of the repository benchmark (see README.md): run
 * options, the metric/check report, wall clocks, optional spans,
 * digests and resident-memory probes.
 *
 * The benchmark drives the rhmd library only through its public
 * headers. Spans are recorded from this directory's files around the
 * calls into each library layer, never from inside src/.
 */

#ifndef RHMD_BENCHMARK_BENCH_HH
#define RHMD_BENCHMARK_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rhmd.hh"
#include "features/corpus.hh"
#include "support/tracing.hh"

namespace rhmd::benchmark
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** CI-sized population and one study repetition (self-test). */
    bool small = false;
    /** Directory the run may write scratch files into. */
    std::string workdir;
};

/** Seconds on the steady clock since an arbitrary origin. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * A span around one layer call, recorded only in traced runs so the
 * untraced run measures the end-to-end metrics without any tracing
 * cost.
 */
class Span
{
  public:
    explicit Span(const char *name);

  private:
    std::optional<support::ScopedSpan> span_;
};

/** Turn the Span recorder on (traced runs) or off. */
void setTracing(bool on);

/** One reported metric value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one run reports: metrics by name, correctness checks by
 * name (true = passed), and the operation counts.
 */
struct Report
{
    std::map<std::string, Metric> metrics;
    std::map<std::string, bool> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Record a check; a failing check also prints why. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");
};

/** Median of @p values (0 for an empty set). */
double median(std::vector<double> values);

/** @p q-quantile (0..1) of @p values, nearest-rank on sorted data. */
double quantile(std::vector<double> values, double q);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** FNV-1a 64 accumulator for digests. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v);
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    void window(const features::RawWindow &w);
    void program(const features::ProgramFeatures &prog);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Bit-exact equality of two windows, field by field. */
bool sameWindow(const features::RawWindow &a,
                const features::RawWindow &b);

/**
 * Digest of every detector of @p pool: the serialized model and
 * standardizer bytes for the parametric families (LR, SVM, NN) and
 * the threshold plus window scores over @p probe for the tree
 * families, which have no serialized form.
 */
std::string poolDigest(const core::Rhmd &pool,
                       const std::vector<const features::RawWindow *> &probe);

/** Feature spec shorthand. */
features::FeatureSpec spec(features::FeatureKind kind,
                           std::uint32_t period);

/** Malware (resp. benign) members of @p idx. */
std::vector<std::size_t> malwareOf(const features::FeatureCorpus &corpus,
                                   const std::vector<std::size_t> &idx);
std::vector<std::size_t> benignOf(const features::FeatureCorpus &corpus,
                                  const std::vector<std::size_t> &idx);

/** Windows of @p idx at @p period (the scoring probe sets). */
std::vector<const features::RawWindow *>
windowsOf(const features::FeatureCorpus &corpus,
          const std::vector<std::size_t> &idx, std::uint32_t period);

/** A counter of the process-wide metrics registry (0 when absent). */
std::uint64_t counter(const char *name);

/** Per-layer timing the workloads accumulate (traced runs report it). */
struct LayerTimes
{
    double generate = 0.0;
    double extract = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t windows = 0;
    std::map<std::string, double> train;       ///< family -> seconds
    /** Retraining step() time of the retrain pipeline (LR pools). */
    double retrain = 0.0;
    std::map<std::string, double> trainRows;   ///< family -> rows
    std::map<std::string, double> scoreNs;     ///< family -> ns/window
    double reveng = 0.0;
    double rewrite = 0.0;
    double extractEvasive = 0.0;
    double detect = 0.0;
    std::uint64_t sitesAdmitted = 0;
    std::uint64_t sitesRejected = 0;
    double corpusWrite = 0.0;
    double corpusOpen = 0.0;
    double corpusMaterialize = 0.0;
    std::uint64_t replayBytes = 0;
    double poolBusy = 0.0;   ///< pool.task_seconds in the timed phase
    double poolWall = 0.0;   ///< wall of the phases poolBusy covers
    std::uint64_t poolTasks = 0;
};

/** Train a pool with buildRhmd, charging the time to @p layers. */
std::unique_ptr<core::Rhmd>
trainPool(LayerTimes &layers, const std::string &algorithm,
          const std::vector<features::FeatureSpec> &specs,
          const features::FeatureCorpus &corpus,
          const std::vector<std::size_t> &train_idx, std::uint64_t seed);

/**
 * Score @p probe through every one of @p detectors with
 * Hmd::scoreWindows and record ns/window for their family.
 */
void timeScoring(LayerTimes &layers, const std::string &algorithm,
                 const std::vector<std::unique_ptr<core::Hmd>> &detectors,
                 const std::vector<const features::RawWindow *> &probe);

/** Sum of pool.task_seconds so far (the thread pool's busy time). */
double poolTaskSeconds();

} // namespace rhmd::benchmark

#endif // RHMD_BENCHMARK_BENCH_HH
