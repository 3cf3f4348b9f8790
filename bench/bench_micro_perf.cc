/**
 * @file
 * Micro-benchmarks of the SIMD scoring kernels: per-family batch
 * scoring throughput under the scalar reference vs the runtime-
 * dispatched vector kernels, plus the deterministic score/decision
 * hashes the CI simd-dispatch matrix byte-diffs between
 * RHMD_SIMD=scalar and RHMD_SIMD=auto runs.
 *
 * Three layers of gating ride on this binary:
 *
 *  1. The emitted tables carry only Deterministic-domain values
 *     (FNV-1a hashes of score bits and decision streams), computed
 *     under the env-resolved dispatch target. The scalar and auto CI
 *     legs must therefore produce byte-identical BENCH json, or the
 *     vector kernels drifted from the scalar reference.
 *  2. An in-process sweep re-scores everything under every
 *     host-supported target and dies on any hash mismatch, which
 *     catches drift even when only one leg runs.
 *  3. On an AVX2 host with auto dispatch, the geomean batch-64
 *     scoring speedup across the five families must clear the
 *     "micro_perf_simd_min_speedup" floor in bench/baseline.json,
 *     and the NN training speedup (the dispatched Mlp::train
 *     kernels) the "micro_perf_train_min_speedup" floor.
 *     Timing numbers are printed but never emitted into the tables:
 *     wall time is not deterministic and would break the byte diff.
 *
 * The trained NN and RF parameters are hashed into an emitted table
 * as well, so the scalar/auto byte diff and the in-process sweep
 * also cover training.
 */

#include "bench_common.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/hmd.hh"
#include "features/matrix.hh"
#include "features/window.hh"
#include "ml/decision_tree.hh"
#include "ml/kernels.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "ml/svm.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/simd.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::bench;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** FNV-1a over the exact bit patterns of a score vector. */
std::uint64_t
hashScores(std::uint64_t h, const std::vector<double> &scores)
{
    for (double s : scores) {
        h ^= std::bit_cast<std::uint64_t>(s);
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over a decision stream. */
std::uint64_t
hashDecisions(std::uint64_t h, const std::vector<int> &decisions)
{
    for (int d : decisions) {
        h ^= static_cast<std::uint64_t>(d + 1);
        h *= kFnvPrime;
    }
    return h;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

features::FeatureMatrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    features::FeatureMatrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        double *row = m.row(r);
        for (std::size_t j = 0; j < cols; ++j)
            row[j] = rng.uniform(-3.0, 3.0);
    }
    m.buildSoa();
    return m;
}

/** One trained model per scoring family, on one synthetic dataset. */
std::vector<std::unique_ptr<ml::Classifier>>
trainedFamilies(std::size_t d)
{
    Rng rng(4242);
    ml::Dataset data;
    for (std::size_t i = 0; i < 600; ++i) {
        std::vector<double> x(d);
        const int label = i % 2 == 0 ? 1 : 0;
        for (std::size_t j = 0; j < d; ++j)
            x[j] = rng.gaussian(label == 1 ? 0.35 : -0.35, 1.0);
        data.add(std::move(x), label);
    }

    std::vector<std::unique_ptr<ml::Classifier>> out;
    ml::LrConfig lr;
    lr.epochs = 4;
    out.push_back(std::make_unique<ml::LogisticRegression>(lr));
    ml::SvmConfig svm;
    svm.epochs = 4;
    out.push_back(std::make_unique<ml::LinearSvm>(svm));
    ml::MlpConfig mlp;
    mlp.epochs = 2;
    mlp.hidden = 16;
    out.push_back(std::make_unique<ml::Mlp>(mlp));
    out.push_back(std::make_unique<ml::DecisionTree>());
    ml::ForestConfig forest;
    forest.trees = 30;
    out.push_back(std::make_unique<ml::RandomForest>(forest));

    for (auto &clf : out) {
        Rng trainRng(7);
        clf->train(data, trainRng);
    }
    return out;
}

/** Labeled rows shaped like one study detector's training set. */
ml::Dataset
trainingSet(std::size_t rows, std::size_t d, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset data;
    for (std::size_t i = 0; i < rows; ++i) {
        const int label = rng.chance(0.5) ? 1 : 0;
        std::vector<double> x(d);
        for (std::size_t j = 0; j < d; ++j)
            x[j] = rng.gaussian(label == 1 ? 0.3 : -0.3, 1.0);
        data.add(std::move(x), label);
    }
    return data;
}

/** The two trainers the study spends its time in. */
std::unique_ptr<ml::Classifier>
makeTrainer(const std::string &family)
{
    if (family == "NN") {
        ml::MlpConfig mlp;
        mlp.epochs = 10;
        return std::make_unique<ml::Mlp>(mlp);
    }
    return std::make_unique<ml::RandomForest>();
}

/** Hash of every trained parameter of an NN or RF, bit for bit. */
std::uint64_t
hashTrained(const ml::Classifier &clf)
{
    std::uint64_t h = kFnvOffset;
    if (const auto *mlp = dynamic_cast<const ml::Mlp *>(&clf)) {
        for (const auto &row : mlp->hiddenWeights())
            h = hashScores(h, row);
        h = hashScores(h, mlp->hiddenBias());
        h = hashScores(h, mlp->outputWeights());
        return hashScores(h, {mlp->outputBias()});
    }
    const auto &forest = dynamic_cast<const ml::RandomForest &>(clf);
    for (const ml::DecisionTree &tree : forest.trees()) {
        for (const ml::DecisionTree::Node &node : tree.nodes()) {
            h = hashScores(h, {node.value, node.threshold,
                               static_cast<double>(node.feature),
                               static_cast<double>(node.left),
                               static_cast<double>(node.right)});
        }
    }
    return h;
}

/** Train @p family on @p data and hash the result. */
std::uint64_t
trainedHash(const std::string &family, const ml::Dataset &data)
{
    std::unique_ptr<ml::Classifier> clf = makeTrainer(family);
    Rng rng(7);
    clf->train(data, rng);
    return hashTrained(*clf);
}

/** Training throughput: dataset rows per second of train(). */
double
trainRowsPerSecond(const std::string &family, const ml::Dataset &data,
                   double budget)
{
    using clock = std::chrono::steady_clock;
    (void)trainedHash(family, data);  // warm caches and dispatch
    std::size_t reps = 0;
    const clock::time_point start = clock::now();
    double elapsed = 0.0;
    do {
        (void)trainedHash(family, data);
        ++reps;
        elapsed =
            std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < budget);
    return static_cast<double>(data.size() * reps) / elapsed;
}

/** Synthetic raw windows; the last one is a truncated tail. */
std::vector<features::RawWindow>
syntheticWindows(std::size_t n, std::uint32_t period,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<features::RawWindow> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        features::RawWindow &win = out[i];
        const bool tail = i + 1 == n;
        win.instCount = tail ? period / 3 : period;
        win.truncated = tail;
        for (auto &count : win.opcodeCounts)
            count = static_cast<std::uint32_t>(
                rng.below(win.instCount / 8 + 1));
        for (auto &bin : win.memDeltaBins)
            bin = static_cast<std::uint32_t>(
                rng.below(win.instCount / 2 + 1));
        for (auto &event : win.events)
            event = rng.below(win.instCount + 1);
    }
    return out;
}

/**
 * Batch-64 scoring throughput in rows/second: the batch shape the
 * detection service's canonical 64-request batch plan produces.
 */
double
rowsPerSecond(const ml::Classifier &clf,
              const features::FeatureMatrix &batch, double budget)
{
    using clock = std::chrono::steady_clock;
    (void)clf.scoreBatch(batch);  // warm caches and dispatch
    std::size_t reps = 0;
    const clock::time_point start = clock::now();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 32; ++i)
            (void)clf.scoreBatch(batch);
        reps += 32;
        elapsed =
            std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < budget);
    return static_cast<double>(batch.rows() * reps) / elapsed;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("SIMD kernel micro-benchmarks",
           "the scoring substrate behind Figs. 2/13/16 and the serve "
           "batch path");

    const simd::Target active = simd::activeTarget();
    std::printf("dispatch: active target %s (best on this host: %s)\n",
                simd::targetName(active),
                simd::targetName(simd::bestTarget()));

    const std::size_t d = 48;
    const std::size_t rows = smoke() ? 2000 : 10000;
    const auto families = trainedFamilies(d);
    const features::FeatureMatrix big = randomMatrix(rows, d, 20171014);

    // ---- Deterministic score/decision hashes (emitted) -------------
    // Computed under the env-resolved target: the CI simd-dispatch
    // matrix byte-diffs this table between RHMD_SIMD=scalar and
    // =auto runs, so any cross-target drift fails the gate.
    std::printf("\nscoring determinism (target %s)\n",
                simd::targetName(active));
    Table det({"family", "rows", "score_hash", "decision_hash"});
    std::vector<std::uint64_t> family_hashes;
    for (const auto &clf : families) {
        const std::vector<double> scores = clf->scoreBatch(big);
        std::vector<int> decisions;
        decisions.reserve(scores.size());
        for (double s : scores)
            decisions.push_back(s >= 0.5 ? 1 : 0);
        const std::uint64_t score_hash = hashScores(kFnvOffset, scores);
        family_hashes.push_back(score_hash);
        det.addRow({clf->name(), std::to_string(rows),
                    hashHex(score_hash),
                    hashHex(hashDecisions(kFnvOffset, decisions))});
    }
    emitTable(det);

    // ---- Hmd window path incl. a truncated tail (emitted) ----------
    core::HmdConfig hmd_config;
    hmd_config.algorithm = "LR";
    hmd_config.specs.resize(3);
    hmd_config.specs[0].kind = features::FeatureKind::Instructions;
    hmd_config.specs[1].kind = features::FeatureKind::Memory;
    hmd_config.specs[2].kind = features::FeatureKind::Architectural;
    for (auto &spec : hmd_config.specs)
        spec.period = 10000;

    const std::vector<features::RawWindow> malware =
        syntheticWindows(smoke() ? 60 : 200, 10000, 3);
    const std::vector<features::RawWindow> benign =
        syntheticWindows(smoke() ? 60 : 200, 10000, 4);
    std::vector<const features::RawWindow *> windows;
    std::vector<int> labels;
    for (const auto &win : malware) {
        windows.push_back(&win);
        labels.push_back(1);
    }
    for (const auto &win : benign) {
        windows.push_back(&win);
        labels.push_back(0);
    }
    core::Hmd hmd(hmd_config);
    hmd.train(windows, labels);

    const std::vector<double> window_scores = hmd.scoreWindows(windows);
    std::vector<int> window_decisions;
    window_decisions.reserve(window_scores.size());
    for (double s : window_scores)
        window_decisions.push_back(s >= hmd.threshold() ? 1 : 0);
    const std::uint64_t hmd_hash = hashScores(kFnvOffset, window_scores);

    std::printf("\nwindow-path determinism (includes truncated tails)\n");
    Table hmd_table({"path", "windows", "score_hash", "decision_hash"});
    hmd_table.addRow(
        {"hmd_scoreWindows", std::to_string(windows.size()),
         hashHex(hmd_hash),
         hashHex(hashDecisions(kFnvOffset, window_decisions))});
    emitTable(hmd_table);

    // ---- Trained-model hashes (emitted) ----------------------------
    // The dispatched Mlp::train kernels and the presorted CART must
    // give the same parameters under every target.
    const std::size_t train_dim = 20;
    const ml::Dataset train_data =
        trainingSet(smoke() ? 500 : 2000, train_dim, 1729);
    const std::vector<std::string> trainers = {"NN", "RF"};
    std::printf("\ntraining determinism (target %s)\n",
                simd::targetName(active));
    Table train_det({"family", "rows", "dim", "param_hash"});
    std::vector<std::uint64_t> train_hashes;
    for (const std::string &family : trainers) {
        train_hashes.push_back(trainedHash(family, train_data));
        train_det.addRow({family, std::to_string(train_data.size()),
                          std::to_string(train_dim),
                          hashHex(train_hashes.back())});
    }
    emitTable(train_det);

    // ---- In-process cross-target sweep (asserted, not emitted) -----
    // Re-score everything under every host-supported target; any
    // hash drift from the env-resolved run above is fatal.
    for (simd::Target target : simd::supportedTargets()) {
        simd::setActiveTarget(target);
        for (std::size_t f = 0; f < families.size(); ++f) {
            const std::uint64_t h =
                hashScores(kFnvOffset, families[f]->scoreBatch(big));
            fatal_if(h != family_hashes[f], families[f]->name(),
                     " scores under target '", simd::targetName(target),
                     "' diverge from the '", simd::targetName(active),
                     "' run: ", hashHex(h), " vs ",
                     hashHex(family_hashes[f]));
        }
        const std::uint64_t h =
            hashScores(kFnvOffset, hmd.scoreWindows(windows));
        fatal_if(h != hmd_hash, "hmd window scores under target '",
                 simd::targetName(target), "' diverge: ", hashHex(h),
                 " vs ", hashHex(hmd_hash));
        for (std::size_t f = 0; f < trainers.size(); ++f) {
            const std::uint64_t th = trainedHash(trainers[f], train_data);
            fatal_if(th != train_hashes[f], trainers[f],
                     " trained under target '", simd::targetName(target),
                     "' diverges: ", hashHex(th), " vs ",
                     hashHex(train_hashes[f]));
        }
    }
    simd::setActiveTarget(active);
    std::printf("\ncross-target sweep: all supported targets "
                "bit-identical\n");

    // ---- Batch-64 throughput, scalar vs active (printed only) ------
    const features::FeatureMatrix batch64 = randomMatrix(64, d, 7777);
    const double budget = smoke() ? 0.05 : 0.15;
    std::printf("\nbatch-64 scoring throughput (timing; deliberately "
                "not in the deterministic tables)\n");
    Table timing({"family", "scalar_rows_per_s",
                  std::string(simd::targetName(active)) + "_rows_per_s",
                  "speedup"});
    double log_speedup_sum = 0.0;
    for (const auto &clf : families) {
        simd::setActiveTarget(simd::Target::Scalar);
        const double scalar_rps = rowsPerSecond(*clf, batch64, budget);
        simd::setActiveTarget(active);
        const double active_rps = rowsPerSecond(*clf, batch64, budget);
        const double speedup = active_rps / scalar_rps;
        log_speedup_sum += std::log(speedup);
        timing.addRow({clf->name(), Table::cell(scalar_rps, 0),
                       Table::cell(active_rps, 0),
                       Table::cell(speedup, 2)});
    }
    const double geomean = std::exp(
        log_speedup_sum / static_cast<double>(families.size()));
    timing.print(std::cout);
    std::printf("geomean batch-64 speedup (%s vs scalar): %.2fx\n",
                simd::targetName(active), geomean);

    // ---- Training throughput, scalar vs active (printed only) ------
    // RF rows are there for scale: tree growth has no dispatched
    // kernel, so its two columns measure the same code.
    std::printf("\ntraining throughput, %zu rows x %zu features "
                "(timing; not in the deterministic tables)\n",
                train_data.size(), train_dim);
    Table train_timing(
        {"family", "scalar_rows_per_s",
         std::string(simd::targetName(active)) + "_rows_per_s",
         "speedup"});
    double nn_train_speedup = 0.0;
    for (const std::string &family : trainers) {
        simd::setActiveTarget(simd::Target::Scalar);
        const double scalar_rps =
            trainRowsPerSecond(family, train_data, budget);
        simd::setActiveTarget(active);
        const double active_rps =
            trainRowsPerSecond(family, train_data, budget);
        const double speedup = active_rps / scalar_rps;
        if (family == "NN")
            nn_train_speedup = speedup;
        train_timing.addRow({family, Table::cell(scalar_rps, 0),
                             Table::cell(active_rps, 0),
                             Table::cell(speedup, 2)});
    }
    train_timing.print(std::cout);

    // ---- Speedup floors (AVX2 hosts, auto dispatch) ----------------
    if (active == simd::Target::Avx2) {
        const double floor = bench::detail::requiredBaseline(
            "micro_perf_simd_min_speedup");
        fatal_if(geomean < floor, "vectorized batch-64 scoring is only ",
                 Table::cell(geomean, 2), "x scalar (floor ",
                 Table::cell(floor, 2),
                 "x): the avx2 kernels regressed");
        std::printf("scoring speedup floor %.2fx: passed\n", floor);
        const double train_floor = bench::detail::requiredBaseline(
            "micro_perf_train_min_speedup");
        fatal_if(nn_train_speedup < train_floor,
                 "NN training under avx2 is only ",
                 Table::cell(nn_train_speedup, 2), "x scalar (floor ",
                 Table::cell(train_floor, 2),
                 "x): the training kernels regressed");
        std::printf("training speedup floor %.2fx: passed\n",
                    train_floor);
    } else {
        std::printf("speedup floors: skipped (active target %s is not "
                    "avx2)\n",
                    simd::targetName(active));
    }

    return bench::finish();
}
