/**
 * @file
 * CART implementation.
 */

#include "ml/decision_tree.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "support/logging.hh"

namespace rhmd::ml
{

DecisionTree::DecisionTree(TreeConfig config)
    : config_(config)
{
}

/**
 * Presorted CART state, allocated once per grow(). order holds one
 * index list per feature: order[f * rows + start, + count) is the
 * current node's rows sorted by feature f. A split stably partitions
 * every feature's segment into [left | right], so each child's
 * segments stay sorted and no node ever sorts or allocates.
 */
struct DecisionTree::GrowState
{
    const ColumnSample &sample;
    std::vector<std::uint32_t> order;     ///< [feature][position]
    std::vector<std::uint32_t> spill;     ///< right rows mid-partition
    std::vector<std::uint8_t> goesLeft;   ///< [row], current split
};

std::int32_t
DecisionTree::build(GrowState &state, std::size_t start,
                    std::size_t count, std::size_t depth)
{
    const ColumnSample &sample = state.sample;
    const std::size_t n = sample.rows;
    const int *labels = sample.labels.data();
    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();

    // Every feature's segment holds the node's rows; use feature 0's.
    std::uint32_t *rows = state.order.data() + start;
    std::size_t positives = 0;
    for (std::size_t k = 0; k < count; ++k)
        positives += static_cast<std::size_t>(labels[rows[k]]);
    const double frac = count == 0
        ? 0.5
        : static_cast<double>(positives) / static_cast<double>(count);
    nodes_[node_id].value = frac;

    const bool pure = positives == 0 || positives == count;
    if (pure || depth >= config_.maxDepth ||
        count < config_.minSamplesSplit) {
        return node_id;
    }

    // Greedy best Gini split across all features, scanning each
    // feature's rows in ascending value order. Only boundaries
    // between distinct values are candidates, and the counts left of
    // such a boundary do not depend on how tied rows are ordered, so
    // this visits the same (feature, boundary) candidates with the
    // same counts as sorting (value, label) pairs per node would.
    const std::size_t d = sample.dim;
    double best_gini = 2.0;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;

    for (std::size_t f = 0; f < d; ++f) {
        const std::uint32_t *idx = state.order.data() + f * n + start;
        const double *col = sample.values.data() + f * n;
        std::size_t left_n = 0;
        std::size_t left_pos = 0;
        const std::size_t total_n = count;
        const std::size_t total_pos = positives;
        double next = col[idx[0]];
        for (std::size_t k = 0; k + 1 < total_n; ++k) {
            const double value = next;
            next = col[idx[k + 1]];
            ++left_n;
            left_pos += static_cast<std::size_t>(labels[idx[k]]);
            if (value == next)
                continue;  // no threshold between equal values
            const std::size_t right_n = total_n - left_n;
            if (left_n < config_.minSamplesLeaf ||
                right_n < config_.minSamplesLeaf) {
                continue;
            }
            const double lp = static_cast<double>(left_pos) /
                              static_cast<double>(left_n);
            const double rp =
                static_cast<double>(total_pos - left_pos) /
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
                best_threshold = 0.5 * (value + next);
            }
        }
    }

    if (best_gini >= 2.0)
        return node_id;  // no admissible split

    const double *split_col = sample.values.data() + best_feature * n;
    std::size_t left_count = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const bool left = split_col[rows[k]] <= best_threshold;
        state.goesLeft[rows[k]] = left ? 1 : 0;
        left_count += left ? 1 : 0;
    }
    panic_if(left_count == 0 || left_count == count,
             "degenerate decision-tree split");

    for (std::size_t f = 0; f < d; ++f) {
        std::uint32_t *seg = state.order.data() + f * n + start;
        std::size_t kept = 0;
        std::size_t spilled = 0;
        for (std::size_t k = 0; k < count; ++k) {
            const std::uint32_t row = seg[k];
            if (state.goesLeft[row] != 0)
                seg[kept++] = row;
            else
                state.spill[spilled++] = row;
        }
        std::copy(state.spill.begin(),
                  state.spill.begin() +
                      static_cast<std::ptrdiff_t>(spilled),
                  seg + kept);
    }

    const std::int32_t left = build(state, start, left_count, depth + 1);
    const std::int32_t right = build(state, start + left_count,
                                     count - left_count, depth + 1);
    nodes_[node_id].leaf = false;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
}

void
DecisionTree::grow(const ColumnSample &sample)
{
    const std::size_t n = sample.rows;
    panic_if(sample.values.size() != n * sample.dim ||
                 sample.labels.size() != n,
             "inconsistent column sample shape");
    fatal_if(n > std::numeric_limits<std::uint32_t>::max(),
             "too many rows for one decision tree: ", n);
    nodes_.clear();

    GrowState state{sample, {}, {}, {}};
    state.order.resize(sample.dim * n);
    for (std::size_t f = 0; f < sample.dim; ++f) {
        const double *col = sample.values.data() + f * n;
        for (std::size_t i = 0; i < n; ++i)
            fatal_if(std::isnan(col[i]),
                     "cannot train DT on NaN feature values");
        std::uint32_t *seg = state.order.data() + f * n;
        std::iota(seg, seg + n, std::uint32_t{0});
        std::sort(seg, seg + n, [col](std::uint32_t a, std::uint32_t b) {
            return col[a] < col[b];
        });
    }
    state.spill.resize(n);
    state.goesLeft.resize(n);
    build(state, 0, n, 0);
}

void
DecisionTree::train(const Dataset &data, Rng &rng)
{
    (void)rng;  // CART is deterministic
    fatal_if(data.empty(), "cannot train DT on empty data");
    data.validate();
    ColumnSample sample;
    sample.rows = data.size();
    sample.dim = data.dim();
    sample.values.resize(sample.rows * sample.dim);
    for (std::size_t i = 0; i < sample.rows; ++i) {
        for (std::size_t f = 0; f < sample.dim; ++f)
            sample.values[f * sample.rows + i] = data.x[i][f];
    }
    sample.labels = data.y;
    grow(sample);
}

FlatTree
flattenTree(const std::vector<DecisionTree::Node> &nodes,
            const std::vector<std::size_t> *map)
{
    FlatTree out;
    out.feature.reserve(nodes.size());
    out.threshold.reserve(nodes.size());
    out.left.reserve(nodes.size());
    out.right.reserve(nodes.size());
    out.value.reserve(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const DecisionTree::Node &node = nodes[n];
        if (node.leaf) {
            out.feature.push_back(-1);
            out.threshold.push_back(0.0);
            out.left.push_back(static_cast<std::int64_t>(n));
            out.right.push_back(static_cast<std::int64_t>(n));
        } else {
            panic_if(map != nullptr && node.feature >= map->size(),
                     "tree split feature ", node.feature,
                     " outside its feature selection (", map->size(),
                     " entries)");
            const std::size_t f =
                map == nullptr ? node.feature : (*map)[node.feature];
            out.feature.push_back(static_cast<std::int64_t>(f));
            out.threshold.push_back(node.threshold);
            out.left.push_back(node.left);
            out.right.push_back(node.right);
        }
        out.value.push_back(node.value);
    }
    return out;
}

double
DecisionTree::score(const std::vector<double> &x) const
{
    panic_if(nodes_.empty(), "DT scored before training");
    return scoreRow(x.data());
}

double
DecisionTree::scoreRow(const double *row) const
{
    std::int32_t node = 0;
    while (!nodes_[node].leaf) {
        node = row[nodes_[node].feature] <= nodes_[node].threshold
            ? nodes_[node].left
            : nodes_[node].right;
    }
    return nodes_[node].value;
}

std::vector<double>
DecisionTree::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(nodes_.empty(), "DT scored before training");
    // The node walk on every target: a single tree has no kernel
    // (see kernels_avx2.cc; only forests amortize a vector walk).
    std::vector<double> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        out[r] = scoreRow(x.row(r));
    return out;
}

std::unique_ptr<Classifier>
DecisionTree::clone() const
{
    return std::make_unique<DecisionTree>(*this);
}

std::size_t
DecisionTree::depth() const
{
    if (nodes_.empty())
        return 0;
    std::function<std::size_t(std::int32_t)> walk =
        [&](std::int32_t node) -> std::size_t {
        if (nodes_[node].leaf)
            return 1;
        return 1 + std::max(walk(nodes_[node].left),
                            walk(nodes_[node].right));
    };
    return walk(0);
}

} // namespace rhmd::ml
