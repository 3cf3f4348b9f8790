/**
 * @file
 * The open-loop serving phase every workload ends with: Poisson
 * arrivals at the fixed rates r1 < r2 < r3 against a
 * serve::DetectionService, closed bursts for its capacity, on
 * serve_retrain a retrain window in which pipeline::RetrainPipeline
 * promotes or rejects candidates, a rate ladder for the highest
 * sustainable rate (traced runs), and the serial replay check of every
 * answer.
 */

#ifndef RHMD_BENCHMARK_SERVE_HH
#define RHMD_BENCHMARK_SERVE_HH

#include <memory>
#include <vector>

#include "bench.hh"
#include "serve/service.hh"

namespace rhmd::benchmark
{

/**
 * Offered rates of the three fixed latency windows (requests/s). They
 * are constants, so a faster or slower service is measured at the same
 * offered load, chosen from the closed-burst capacity
 * (serve.capacity_rps) of one worker with batches of up to 16 on the
 * 4-vCPU Xeon VM the benchmark was built on: 180k-205k requests/s for
 * the studies' six-detector pools and 300k-320k for the serving
 * workloads' three-detector pool. Against the slower capacity r1 is
 * light load (2%): nearly every request finds the worker idle. r2 is
 * typical load (8%): small batches form. r3 is heavy load (25%) with
 * headroom: latency near the knee amplifies the host's speed changes
 * (with r3 at half the capacity one run in four measured a p50 three
 * times the others'), and the knee itself is the rate ladder's figure.
 */
inline constexpr double kRateR1 = 4000.0;
inline constexpr double kRateR2 = 16000.0;
inline constexpr double kRateR3 = 48000.0;

/** p90 latency limit the rate ladder holds (µs, due to resolved). */
inline constexpr double kLatencyLimitUs = 1000.0;

/** What the serving phase serves and retrains on. */
struct ServeInputs
{
    /** Ground-truth corpus: retraining base and promotion gate. */
    const features::FeatureCorpus *corpus = nullptr;
    std::vector<std::size_t> trainIdx;
    std::vector<std::size_t> gateIdx;
    /** Specs of the served pool (retrained candidates reuse them). */
    std::vector<features::FeatureSpec> specs;
    /** The version-1 pool. */
    std::shared_ptr<core::Rhmd> pool;
    /** Honest request mix. */
    std::vector<const features::ProgramFeatures *> traffic;
    /** Evasive variants mixed into retrain traffic (may be empty). */
    std::vector<const features::ProgramFeatures *> evasive;
};

/** Serving-phase shape. */
struct ServePlan
{
    /** Wall budget of the whole phase, seconds. */
    double seconds = 5.0;
    /**
     * Run the r2 latency window as the retrain window: evasive
     * variants mixed in and the retrain pipeline attached (the
     * serve_retrain workload). Otherwise no pipeline runs.
     */
    bool retrain = false;
    /**
     * Also measure the figures only the traced run reports: the rate
     * ladder (serve.max_rate_rps) and enough retrain cycles for a
     * steady pipeline.promote_s.
     */
    bool perLayer = false;
    /** Directory for the flight-recorder spool. */
    std::string workdir;
    std::uint64_t seed = 1;
};

/** Service configuration every workload serves with. */
serve::ServeConfig serveConfig(const ServeInputs &inputs);

/**
 * Start a service over inputs.pool under serveConfig() with its worker
 * on its own CPU, and warm it up closed-loop (part of set-up): every
 * traffic program once, so allocator pools and caches are warm before
 * any timed window.
 */
std::unique_ptr<serve::DetectionService>
startService(const ServeInputs &inputs);

/** Times of the serving phase its caller charges to layers. */
struct ServeTimes
{
    /** Timed serial replay of the fixed-rate rounds' answers. */
    double replay = 0.0;
    /** Summed retraining step() time of the pipeline (LR pools). */
    double retrain = 0.0;
};

/**
 * Run the serving phase and record p50_us.r2, p50_us.r3 and
 * peak_rss_mb plus the serve.* and pipeline.* per-layer values into
 * @p report. @p service must serve inputs.pool as its current version
 * under serveConfig(). Every answer is checked against a serial
 * replay.
 */
ServeTimes runServePhase(const ServeInputs &inputs, const ServePlan &plan,
                         serve::DetectionService &service, Report &report);

} // namespace rhmd::benchmark

#endif // RHMD_BENCHMARK_SERVE_HH
