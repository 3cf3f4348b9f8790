/**
 * @file
 * The four benchmark workloads. Each fills a Run with its end-to-end
 * metrics, per-layer times, correctness checks and digests.
 *
 * The populations are the repository's corpus presets (CI-sized when
 * Options::small), the same on every run: the run seed drives the
 * serving inputs (arrival gaps, request mix, request keys) and the
 * sample of programs re-extracted for the replay check. Work that
 * depends on the population therefore does not vary with the seed,
 * and the output digests hold for every seed.
 */

#ifndef RHMD_BENCHMARK_WORKLOADS_HH
#define RHMD_BENCHMARK_WORKLOADS_HH

#include <map>
#include <string>

#include "bench.hh"

namespace rhmd::benchmark
{

/** State of one benchmark run. */
struct Run
{
    Options opt;
    Report report;
    LayerTimes layers;
    /** Deterministic output digests, compared to digests.json. */
    std::map<std::string, std::string> digests;
    /** study_s samples from untraced and traced repetitions. */
    std::vector<double> studyUntraced;
    std::vector<double> studyTraced;
};

void runStudyFresh(Run &run);
void runStudyReplay(Run &run);
void runServe(Run &run, bool retrain);

/**
 * Per-instruction cost of the trace -> uarch -> features loop on one
 * fixed program sample (independent of the run seed): Executor::run
 * into a counting sink, then the recorded stream replayed through
 * PerfMonitor::step and FeatureSession::consume.
 */
void probePerInstruction(Report &report);

} // namespace rhmd::benchmark

#endif // RHMD_BENCHMARK_WORKLOADS_HH
