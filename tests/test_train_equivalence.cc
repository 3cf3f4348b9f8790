/**
 * @file
 * Bit-equality of the fast trainers against the trainers they
 * replaced. The file holds test-only copies of the row-major
 * Mlp::train (one dot() per hidden unit, ragged [hidden][input]
 * weights) and of the sort-per-node CART build, and checks that the
 * library's input-major kernel MLP and presorted CART produce the
 * same parameters, bit for bit (memcmp), under every dispatch target
 * the host supports — on continuous data, tie-heavy integer columns
 * (ties across labels, -0.0 next to 0.0), duplicate rows, growth
 * limit edge cases, and random forests over several seeds.
 *
 * Compiled with -ffp-contract=off like the library trainers, so the
 * reference copies round exactly as the originals did.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ml/decision_tree.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "support/rng.hh"
#include "support/simd.hh"
#include "support/stats.hh"

namespace
{

using namespace rhmd;
using Node = ml::DecisionTree::Node;

/** Restore the dispatch target a test overrode, even on failure. */
class TargetGuard
{
  public:
    TargetGuard() : saved_(simd::activeTarget()) {}
    ~TargetGuard() { simd::setActiveTarget(saved_); }
    TargetGuard(const TargetGuard &) = delete;
    TargetGuard &operator=(const TargetGuard &) = delete;

  private:
    simd::Target saved_;
};

// --- Reference MLP: the row-major trainer, verbatim ---------------

struct MlpParams
{
    std::vector<std::vector<double>> w1;
    std::vector<double> b1;
    std::vector<double> w2;
    double b2 = 0.0;
};

MlpParams
referenceMlpTrain(const ml::Dataset &data, Rng &rng,
                  const ml::MlpConfig &config)
{
    const std::size_t inputDim = data.dim();
    const std::size_t hidden =
        config.hidden == 0 ? inputDim : config.hidden;
    MlpParams p;

    const double init_sd =
        config.initScale / std::sqrt(static_cast<double>(inputDim));
    p.w1.assign(hidden, std::vector<double>(inputDim));
    p.b1.assign(hidden, 0.0);
    p.w2.assign(hidden, 0.0);
    for (auto &row : p.w1) {
        for (double &w : row)
            w = rng.gaussian(0.0, init_sd);
    }
    const double out_sd =
        config.initScale / std::sqrt(static_cast<double>(hidden));
    for (double &w : p.w2)
        w = rng.gaussian(0.0, out_sd);

    std::vector<std::vector<double>> v1(
        hidden, std::vector<double>(inputDim, 0.0));
    std::vector<double> vb1(hidden, 0.0);
    std::vector<double> v2(hidden, 0.0);
    double vb2 = 0.0;
    std::vector<double> act(hidden);

    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        const double step = config.learningRate /
                            (1.0 + 0.03 * static_cast<double>(epoch));
        const std::vector<std::size_t> order =
            rng.permutation(data.size());
        for (std::size_t i : order) {
            const std::vector<double> &x = data.x[i];
            const double target = static_cast<double>(data.y[i]);
            double z_out = p.b2;
            for (std::size_t h = 0; h < hidden; ++h) {
                act[h] = std::tanh(dot(p.w1[h], x) + p.b1[h]);
                z_out += p.w2[h] * act[h];
            }
            const double prob = ml::sigmoid(z_out);
            const double delta_out = prob - target;
            for (std::size_t h = 0; h < hidden; ++h) {
                const double delta_h =
                    delta_out * p.w2[h] * (1.0 - act[h] * act[h]);
                v2[h] = config.momentum * v2[h] -
                        step * (delta_out * act[h] +
                                config.l2 * p.w2[h]);
                p.w2[h] += v2[h];
                auto &w_row = p.w1[h];
                auto &v_row = v1[h];
                for (std::size_t j = 0; j < inputDim; ++j) {
                    v_row[j] = config.momentum * v_row[j] -
                               step * (delta_h * x[j] +
                                       config.l2 * w_row[j]);
                    w_row[j] += v_row[j];
                }
                vb1[h] = config.momentum * vb1[h] - step * delta_h;
                p.b1[h] += vb1[h];
            }
            vb2 = config.momentum * vb2 - step * delta_out;
            p.b2 += vb2;
        }
    }
    return p;
}

// --- Reference CART: (value, label) sort at every node, verbatim --

class ReferenceTree
{
  public:
    explicit ReferenceTree(ml::TreeConfig config) : config_(config) {}

    std::vector<Node>
    train(const ml::Dataset &data)
    {
        nodes_.clear();
        std::vector<std::size_t> indices(data.size());
        for (std::size_t i = 0; i < data.size(); ++i)
            indices[i] = i;
        build(data, indices, 0);
        return nodes_;
    }

  private:
    std::int32_t
    build(const ml::Dataset &data, std::vector<std::size_t> &indices,
          std::size_t depth)
    {
        const auto node_id = static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
        std::size_t positives = 0;
        for (std::size_t i : indices)
            positives += static_cast<std::size_t>(data.y[i]);
        nodes_[node_id].value = indices.empty()
            ? 0.5
            : static_cast<double>(positives) /
                  static_cast<double>(indices.size());
        const bool pure = positives == 0 || positives == indices.size();
        if (pure || depth >= config_.maxDepth ||
            indices.size() < config_.minSamplesSplit)
            return node_id;

        double best_gini = 2.0;
        std::size_t best_feature = 0;
        double best_threshold = 0.0;
        std::vector<std::pair<double, int>> column(indices.size());
        for (std::size_t f = 0; f < data.dim(); ++f) {
            for (std::size_t k = 0; k < indices.size(); ++k)
                column[k] = {data.x[indices[k]][f], data.y[indices[k]]};
            std::sort(column.begin(), column.end());
            std::size_t left_n = 0;
            std::size_t left_pos = 0;
            const std::size_t total_n = column.size();
            for (std::size_t k = 0; k + 1 < total_n; ++k) {
                ++left_n;
                left_pos += static_cast<std::size_t>(column[k].second);
                if (column[k].first == column[k + 1].first)
                    continue;
                const std::size_t right_n = total_n - left_n;
                if (left_n < config_.minSamplesLeaf ||
                    right_n < config_.minSamplesLeaf)
                    continue;
                const double lp = static_cast<double>(left_pos) /
                                  static_cast<double>(left_n);
                const double rp =
                    static_cast<double>(positives - left_pos) /
                    static_cast<double>(right_n);
                const double gini_left = 2.0 * lp * (1.0 - lp);
                const double gini_right = 2.0 * rp * (1.0 - rp);
                const double weighted =
                    (gini_left * static_cast<double>(left_n) +
                     gini_right * static_cast<double>(right_n)) /
                    static_cast<double>(total_n);
                if (weighted < best_gini) {
                    best_gini = weighted;
                    best_feature = f;
                    best_threshold =
                        0.5 * (column[k].first + column[k + 1].first);
                }
            }
        }
        if (best_gini >= 2.0)
            return node_id;

        std::vector<std::size_t> left_idx;
        std::vector<std::size_t> right_idx;
        for (std::size_t i : indices) {
            if (data.x[i][best_feature] <= best_threshold)
                left_idx.push_back(i);
            else
                right_idx.push_back(i);
        }
        const std::int32_t left = build(data, left_idx, depth + 1);
        const std::int32_t right = build(data, right_idx, depth + 1);
        nodes_[node_id].leaf = false;
        nodes_[node_id].feature = best_feature;
        nodes_[node_id].threshold = best_threshold;
        nodes_[node_id].left = left;
        nodes_[node_id].right = right;
        return node_id;
    }

    ml::TreeConfig config_;
    std::vector<Node> nodes_;
};

// --- Reference forest: row-wise bootstrap Dataset per tree --------

struct ForestParams
{
    std::vector<std::vector<Node>> trees;
    std::vector<std::vector<std::size_t>> sel;
};

ForestParams
referenceForestTrain(const ml::Dataset &data, Rng &rng,
                     const ml::ForestConfig &config)
{
    const std::size_t d = data.dim();
    const auto features_per_tree = std::min<std::size_t>(
        d, std::max<std::size_t>(
               1, static_cast<std::size_t>(
                      std::ceil(std::sqrt(static_cast<double>(d)) *
                                config.featureFactor))));
    const auto samples_per_tree = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               config.sampleFrac * static_cast<double>(data.size())));
    const SplitRng split(rng.next());
    ForestParams out;
    for (std::size_t t = 0; t < config.trees; ++t) {
        Rng tree_rng = split.at(t);
        const std::vector<std::size_t> perm = tree_rng.permutation(d);
        std::vector<std::size_t> sel(perm.begin(),
                                     perm.begin() + features_per_tree);
        ml::Dataset sample;
        for (std::size_t k = 0; k < samples_per_tree; ++k) {
            const std::size_t i = tree_rng.below(data.size());
            std::vector<double> row;
            for (std::size_t f : sel)
                row.push_back(data.x[i][f]);
            sample.add(std::move(row), data.y[i]);
        }
        out.trees.push_back(ReferenceTree(config.tree).train(sample));
        out.sel.push_back(std::move(sel));
    }
    return out;
}

// --- Comparison helpers -------------------------------------------

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectSameMlp(const ml::Mlp &got, const MlpParams &want,
              const std::string &label)
{
    ASSERT_EQ(got.hiddenWeights().size(), want.w1.size()) << label;
    for (std::size_t h = 0; h < want.w1.size(); ++h)
        EXPECT_TRUE(sameBits(got.hiddenWeights()[h], want.w1[h]))
            << label << ": hidden row " << h;
    EXPECT_TRUE(sameBits(got.hiddenBias(), want.b1)) << label;
    EXPECT_TRUE(sameBits(got.outputWeights(), want.w2)) << label;
    EXPECT_TRUE(sameBits(got.outputBias(), want.b2)) << label;
}

void
expectSameNodes(const std::vector<Node> &got,
                const std::vector<Node> &want, const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t n = 0; n < want.size(); ++n) {
        EXPECT_EQ(got[n].leaf, want[n].leaf) << label << " node " << n;
        EXPECT_TRUE(sameBits(got[n].value, want[n].value))
            << label << " node " << n;
        if (want[n].leaf)
            continue;
        EXPECT_EQ(got[n].feature, want[n].feature)
            << label << " node " << n;
        EXPECT_TRUE(sameBits(got[n].threshold, want[n].threshold))
            << label << " node " << n << ": " << got[n].threshold
            << " vs " << want[n].threshold;
        EXPECT_EQ(got[n].left, want[n].left) << label << " node " << n;
        EXPECT_EQ(got[n].right, want[n].right) << label << " node " << n;
    }
}

// --- Datasets -----------------------------------------------------

/** Gaussian classes whose means differ by feature. */
ml::Dataset
continuousData(std::size_t rows, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset data;
    for (std::size_t i = 0; i < rows; ++i) {
        const int label = rng.chance(0.45) ? 1 : 0;
        std::vector<double> x(dim);
        for (std::size_t j = 0; j < dim; ++j) {
            const double shift =
                (label == 1 ? 0.4 : -0.4) * (j % 3 == 0 ? 1.0 : 0.3);
            x[j] = rng.gaussian(shift, 1.0);
        }
        data.add(std::move(x), label);
    }
    return data;
}

/**
 * Integer-valued columns from a handful of levels, with -0.0 and 0.0
 * both present and every level carrying both labels: nearly every
 * candidate boundary sits between long runs of tied values.
 */
ml::Dataset
tieHeavyData(std::size_t rows, std::size_t dim, std::uint64_t seed)
{
    static const double kLevels[] = {-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0};
    Rng rng(seed);
    ml::Dataset data;
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> x(dim);
        double sum = 0.0;
        for (std::size_t j = 0; j < dim; ++j) {
            x[j] = kLevels[rng.below(std::size(kLevels))];
            sum += x[j];
        }
        const int label = rng.chance(sum > 0.0 ? 0.7 : 0.3) ? 1 : 0;
        data.add(std::move(x), label);
    }
    return data;
}

/** @p base with every row repeated a random 1-3 times, shuffled. */
ml::Dataset
withDuplicates(const ml::Dataset &base, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset repeated;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const std::size_t copies = 1 + rng.below(3);
        for (std::size_t c = 0; c < copies; ++c)
            repeated.add(base.x[i], base.y[i]);
    }
    return repeated.shuffled(rng);
}

const std::size_t kDims[] = {1, 3, 16, 20, 33};

// --- MLP ----------------------------------------------------------

void
checkMlp(const ml::Dataset &data, const ml::MlpConfig &config,
         std::uint64_t seed, const std::string &label)
{
    TargetGuard guard;
    Rng ref_rng(seed);
    const MlpParams want = referenceMlpTrain(data, ref_rng, config);
    for (simd::Target target : simd::supportedTargets()) {
        simd::setActiveTarget(target);
        ml::Mlp mlp(config);
        Rng rng(seed);
        mlp.train(data, rng);
        expectSameMlp(mlp, want,
                      label + " target " + simd::targetName(target));
    }
}

TEST(MlpTrain, BitEqualAcrossDimsAndHiddenWidths)
{
    for (std::size_t dim : kDims) {
        const ml::Dataset data = continuousData(160, dim, 100 + dim);
        // hidden == dim (the paper's rule), then widths that leave
        // every lane-count remainder: 1, odd, one past a vector pair.
        for (std::size_t hidden : {std::size_t{0}, std::size_t{1},
                                   std::size_t{7}, std::size_t{9}}) {
            ml::MlpConfig config;
            config.hidden = hidden;
            config.epochs = 6;
            checkMlp(data, config, 7 + hidden,
                     "dim " + std::to_string(dim) + " hidden " +
                         std::to_string(hidden));
        }
    }
}

TEST(MlpTrain, BitEqualOverFullDefaultSchedule)
{
    // The default 200-epoch schedule (learning-rate decay included)
    // on a small set: any rounding drift compounds over 12k steps.
    const ml::Dataset data = continuousData(60, 20, 5);
    checkMlp(data, ml::MlpConfig{}, 11, "default schedule");
}

TEST(MlpTrain, BitEqualOnTieHeavyAndSignedZeroInputs)
{
    for (std::size_t dim : kDims) {
        const ml::Dataset data =
            withDuplicates(tieHeavyData(90, dim, 200 + dim), dim);
        ml::MlpConfig config;
        config.epochs = 5;
        config.hidden = dim == 16 ? 13 : 0;
        checkMlp(data, config, 3, "tie-heavy dim " + std::to_string(dim));
    }
}

// --- Decision tree ------------------------------------------------

void
checkTree(const ml::Dataset &data, const ml::TreeConfig &config,
          const std::string &label)
{
    const std::vector<Node> want = ReferenceTree(config).train(data);
    ml::DecisionTree tree(config);
    Rng rng(1);
    tree.train(data, rng);
    expectSameNodes(tree.nodes(), want, label);
}

std::vector<std::pair<std::string, ml::TreeConfig>>
treeConfigs()
{
    std::vector<std::pair<std::string, ml::TreeConfig>> out;
    out.emplace_back("default", ml::TreeConfig{});
    ml::TreeConfig deep;
    deep.maxDepth = 30;
    deep.minSamplesLeaf = 1;
    deep.minSamplesSplit = 2;
    out.emplace_back("deep, leaf 1", deep);
    ml::TreeConfig stump;
    stump.maxDepth = 1;
    out.emplace_back("stump", stump);
    ml::TreeConfig root_only;
    root_only.maxDepth = 0;
    out.emplace_back("depth 0", root_only);
    ml::TreeConfig wide_leaves;
    wide_leaves.minSamplesLeaf = 40;
    wide_leaves.minSamplesSplit = 0;
    out.emplace_back("leaf 40, split 0", wide_leaves);
    ml::TreeConfig huge_leaves;
    huge_leaves.minSamplesLeaf = 1000;
    out.emplace_back("leaf > rows", huge_leaves);
    return out;
}

TEST(TreeTrain, BitEqualOnContinuousData)
{
    for (std::size_t dim : kDims) {
        const ml::Dataset data = continuousData(300, dim, 300 + dim);
        for (const auto &[name, config] : treeConfigs())
            checkTree(data, config,
                      name + " dim " + std::to_string(dim));
    }
}

TEST(TreeTrain, BitEqualOnTieHeavyColumns)
{
    for (std::size_t dim : kDims) {
        const ml::Dataset data = tieHeavyData(400, dim, 400 + dim);
        for (const auto &[name, config] : treeConfigs())
            checkTree(data, config,
                      "tie-heavy " + name + " dim " + std::to_string(dim));
    }
}

TEST(TreeTrain, BitEqualWithDuplicateRows)
{
    for (std::size_t dim : kDims) {
        const ml::Dataset data =
            withDuplicates(tieHeavyData(150, dim, 500 + dim), 9 + dim);
        for (const auto &[name, config] : treeConfigs())
            checkTree(data, config,
                      "duplicates " + name + " dim " +
                          std::to_string(dim));
    }
}

TEST(TreeTrain, SignedZeroThresholdsMatch)
{
    // One feature: -0.0 and 0.0 tie; the split between {-1} and the
    // zeros, and between the zeros and {1}, must land on identical
    // threshold bits whichever zero the old per-node sort put last.
    ml::Dataset data;
    const double values[] = {-1.0, -0.0, 0.0, -0.0, 0.0, 1.0};
    const int labels[] = {0, 1, 0, 0, 1, 1};
    for (int rep = 0; rep < 4; ++rep) {
        for (std::size_t i = 0; i < std::size(values); ++i)
            data.add({values[i]}, labels[i]);
    }
    ml::TreeConfig config;
    config.minSamplesLeaf = 1;
    config.minSamplesSplit = 2;
    checkTree(data, config, "signed zeros");
}

TEST(TreeTrain, NanFeatureIsFatal)
{
    ml::Dataset data = continuousData(20, 3, 1);
    data.x[4][1] = std::nan("");
    ml::DecisionTree tree;
    Rng rng(1);
    EXPECT_DEATH(tree.train(data, rng), "NaN");
}

// --- Random forest ------------------------------------------------

void
checkForest(const ml::Dataset &data, const ml::ForestConfig &config,
            std::uint64_t seed, const std::string &label)
{
    Rng ref_rng(seed);
    const ForestParams want = referenceForestTrain(data, ref_rng, config);
    ml::RandomForest forest(config);
    Rng rng(seed);
    forest.train(data, rng);
    ASSERT_EQ(forest.treeCount(), want.trees.size()) << label;
    EXPECT_EQ(forest.featureSelections(), want.sel) << label;
    for (std::size_t t = 0; t < want.trees.size(); ++t)
        expectSameNodes(forest.trees()[t].nodes(), want.trees[t],
                        label + " tree " + std::to_string(t));
}

TEST(ForestTrain, BitEqualAcrossSeedsAndDims)
{
    for (std::size_t dim : kDims) {
        const ml::Dataset continuous = continuousData(200, dim, 600 + dim);
        const ml::Dataset ties = tieHeavyData(200, dim, 700 + dim);
        ml::ForestConfig config;
        config.trees = 8;
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            checkForest(continuous, config, seed,
                        "continuous dim " + std::to_string(dim) +
                            " seed " + std::to_string(seed));
            checkForest(ties, config, seed,
                        "tie-heavy dim " + std::to_string(dim) +
                            " seed " + std::to_string(seed));
        }
    }
}

TEST(ForestTrain, BitEqualWithTreeLimitEdgeCases)
{
    const ml::Dataset data = tieHeavyData(160, 20, 800);
    for (const auto &[name, tree] : treeConfigs()) {
        ml::ForestConfig config;
        config.trees = 5;
        config.sampleFrac = 1.0;
        config.featureFactor = 0.5;
        config.tree = tree;
        checkForest(data, config, 42, "forest " + name);
    }
}

TEST(ForestTrain, ForestTreesScoreWithoutTheirOwnFlatCopy)
{
    // Forest trees skip DecisionTree's own flattening; a tree taken
    // out of the forest still scores through the node walk.
    TargetGuard guard;
    const ml::Dataset data = continuousData(120, 6, 900);
    ml::ForestConfig config;
    config.trees = 3;
    ml::RandomForest forest(config);
    Rng rng(5);
    forest.train(data, rng);
    const ml::DecisionTree &tree = forest.trees()[0];
    EXPECT_TRUE(tree.flat().empty());

    features::FeatureMatrix batch(4, forest.featureSelections()[0].size());
    for (std::size_t r = 0; r < batch.rows(); ++r) {
        for (std::size_t j = 0; j < batch.cols(); ++j)
            batch.row(r)[j] = static_cast<double>(r) - 1.5 +
                              0.1 * static_cast<double>(j);
    }
    batch.buildSoa();
    for (simd::Target target : simd::supportedTargets()) {
        simd::setActiveTarget(target);
        const std::vector<double> scores = tree.scoreBatch(batch);
        ASSERT_EQ(scores.size(), batch.rows());
        for (std::size_t r = 0; r < batch.rows(); ++r)
            EXPECT_TRUE(sameBits(scores[r], tree.scoreRow(batch.row(r))));
    }
}

} // namespace
