/**
 * @file
 * Scalar reference kernels and the per-target dispatch registry.
 *
 * The scalar table below is the semantic ground truth: each function
 * is the historical serial loop the classifiers ran before the SoA
 * kernels existed, lifted verbatim. Vector tables register here via
 * the detail::*Table() accessors defined in their own translation
 * units; this file is compiled without any extra ISA flags so the
 * reference path runs on any machine.
 */

#include "ml/kernels.hh"

#include "ml/kernels_impl.hh"
#include "support/logging.hh"

namespace rhmd::ml
{

namespace
{

void
scalarLinearMargin(const features::FeatureMatrix &x, const double *w,
                   double bias, double *out)
{
    const std::size_t d = x.cols();
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.row(r);
        // Same left-to-right accumulation as support::dot, so batch
        // margins are bit-identical to the per-row score() path.
        double z = 0.0;
        for (std::size_t j = 0; j < d; ++j)
            z += w[j] * row[j];
        out[r] = z + bias;
    }
}

void
scalarStandardizeRow(double *row, const double *mean,
                     const double *scale, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        row[j] = (row[j] - mean[j]) / scale[j];
}

/** DecisionTree::scoreRow on the flattened layout: NaN features
 *  compare false against the threshold and go right, like the
 *  original `x[f] <= t` select. */
double
flatTreeLeaf(const FlatTree &tree, const double *row)
{
    std::size_t node = 0;
    while (tree.feature[node] >= 0) {
        const auto f = static_cast<std::size_t>(tree.feature[node]);
        node = row[f] <= tree.threshold[node]
            ? static_cast<std::size_t>(tree.left[node])
            : static_cast<std::size_t>(tree.right[node]);
    }
    return tree.value[node];
}

void
scalarTreeScore(const FlatTree &tree, const features::FeatureMatrix &x,
                double *out)
{
    panic_if(tree.empty(), "tree kernel on an untrained tree");
    for (std::size_t r = 0; r < x.rows(); ++r)
        out[r] = flatTreeLeaf(tree, x.row(r));
}

void
scalarForestScore(const FlatTree *trees, std::size_t nTrees,
                  const features::FeatureMatrix &x, double *out)
{
    panic_if(nTrees == 0, "forest kernel on an untrained forest");
    // Per row: ascending-tree running sum, then one divide — the
    // RandomForest::score accumulation order.
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.row(r);
        double total = 0.0;
        for (std::size_t t = 0; t < nTrees; ++t)
            total += flatTreeLeaf(trees[t], row);
        out[r] = total / static_cast<double>(nTrees);
    }
}

void
scalarRateConvertU32(const std::uint32_t *counts, std::size_t n,
                     double insts, double *out)
{
    for (std::size_t k = 0; k < n; ++k)
        out[k] = static_cast<double>(counts[k]) / insts;
}

void
scalarRateAccumulateU32(const std::uint32_t *counts, std::size_t n,
                        double insts, double *accum)
{
    for (std::size_t k = 0; k < n; ++k)
        accum[k] += static_cast<double>(counts[k]) / insts;
}

void
scalarRateConvertF64(const double *num, std::size_t n, double denom,
                     double *out)
{
    for (std::size_t k = 0; k < n; ++k)
        out[k] = num[k] / denom;
}

void
scalarMlpHiddenPre(const double *w, const double *x, const double *bias,
                   std::size_t inputs, std::size_t hidden, double *pre)
{
    for (std::size_t h = 0; h < hidden; ++h) {
        double z = 0.0;
        for (std::size_t j = 0; j < inputs; ++j)
            z += w[j * hidden + h] * x[j];
        pre[h] = z + bias[h];
    }
}

void
scalarMomentumStep(double *w, double *v, const double *g,
                   const double *s, std::size_t rows, std::size_t n,
                   double momentum, double step, double l2)
{
    for (std::size_t r = 0; r < rows; ++r) {
        double *wr = w + r * n;
        double *vr = v + r * n;
        for (std::size_t i = 0; i < n; ++i) {
            vr[i] = momentum * vr[i] - step * (g[i] * s[r] + l2 * wr[i]);
            wr[i] += vr[i];
        }
    }
}

} // namespace

namespace detail
{

const KernelTable &
scalarTable()
{
    static const KernelTable table{
        simd::Target::Scalar,
        scalarLinearMargin,
        scalarStandardizeRow,
        scalarTreeScore,
        scalarForestScore,
        scalarRateConvertU32,
        scalarRateAccumulateU32,
        scalarRateConvertF64,
        scalarMlpHiddenPre,
        scalarMomentumStep,
    };
    return table;
}

} // namespace detail

const KernelTable &
kernelsFor(simd::Target target)
{
    switch (target) {
      case simd::Target::Scalar:
        return detail::scalarTable();
      case simd::Target::Sse2:
#if defined(__SSE2__)
        return detail::sse2Table();
#else
        break;
#endif
      case simd::Target::Avx2:
#if defined(RHMD_SIMD_HAVE_AVX2)
        return detail::avx2Table();
#else
        break;
#endif
      case simd::Target::Neon:
#if defined(__ARM_NEON) && defined(__aarch64__)
        return detail::neonTable();
#else
        break;
#endif
    }
    rhmd_fatal("no kernels compiled for simd target '",
               simd::targetName(target), "'");
}

const KernelTable &
kernels()
{
    return kernelsFor(simd::activeTarget());
}

} // namespace rhmd::ml
