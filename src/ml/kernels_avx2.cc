/**
 * @file
 * AVX2 kernel table: 4-lane instantiations plus the masked gather
 * tree traversal.
 *
 * This is the only translation unit compiled with -mavx2 (and
 * -ffp-contract=off so no multiply-add ever fuses — fusion would
 * round differently from the scalar reference and break the
 * bit-equality gate). It is linked unconditionally but only ever
 * called when runtime dispatch selected the avx2 target, which
 * requires __builtin_cpu_supports("avx2").
 *
 * The forest kernel traverses four batch rows per vector: node ids
 * live in a 64-bit lane each, per-node fields come in through
 * i64 gathers, and the `x[f] <= t` select is a _CMP_LE_OQ compare
 * (NaN -> false -> right child, exactly the scalar walk). Finished
 * lanes spin on their self-referential leaf until the block drains.
 * A forest overlaps many independent per-tree gather chains, which
 * hides the gather latency; a single shallow tree cannot, and the
 * lockstep walk (every lane steps to the deepest lane's depth)
 * measures well below the plain scalar descent — so there is no
 * single-tree kernel: DecisionTree::scoreBatch walks its nodes on
 * every target.
 */

#include "ml/kernels_impl.hh"

#if defined(__AVX2__)

#include <immintrin.h>

#include "support/logging.hh"

namespace rhmd::ml::detail
{

namespace
{

const long long *
asI64(const std::int64_t *p)
{
    return reinterpret_cast<const long long *>(p);
}

/** Leaf values reached by rows [r, r+4) of the SoA view. */
__m256d
traverseBlock(const FlatTree &tree, const double *soaBase,
              std::int64_t paddedRows, std::int64_t r)
{
    const __m256i rowIdx =
        _mm256_set_epi64x(r + 3, r + 2, r + 1, r);
    const __m256i prVec = _mm256_set1_epi64x(paddedRows);
    const __m256i zero = _mm256_setzero_si256();
    __m256i node = zero;

    // Each pass advances every non-leaf lane one level while leaf
    // lanes re-select themselves. A well-formed tree never needs
    // more passes than it has nodes; more means a cycle.
    const std::size_t maxSteps = tree.size();
    for (std::size_t step = 0;; ++step) {
        const __m256i feat =
            _mm256_i64gather_epi64(asI64(tree.feature.data()), node, 8);
        const __m256i isLeaf = _mm256_cmpgt_epi64(zero, feat);
        if (_mm256_movemask_pd(_mm256_castsi256_pd(isLeaf)) == 0xF)
            break;
        panic_if(step > maxSteps, "cyclic flat tree");

        // Clamp leaf lanes' feature to 0 so their (discarded) value
        // gather stays in bounds; their child select is self anyway.
        const __m256i featIdx = _mm256_andnot_si256(isLeaf, feat);
        // offset = feature * paddedRows + row. Both factors fit in
        // 32 bits, so the unsigned 32x32->64 multiply is exact.
        const __m256i offset = _mm256_add_epi64(
            _mm256_mul_epu32(featIdx, prVec), rowIdx);
        const __m256d fval = _mm256_i64gather_pd(soaBase, offset, 8);
        const __m256d thr =
            _mm256_i64gather_pd(tree.threshold.data(), node, 8);
        const __m256d goLeft = _mm256_cmp_pd(fval, thr, _CMP_LE_OQ);

        const __m256i left =
            _mm256_i64gather_epi64(asI64(tree.left.data()), node, 8);
        const __m256i right =
            _mm256_i64gather_epi64(asI64(tree.right.data()), node, 8);
        node = _mm256_blendv_epi8(right, left,
                                  _mm256_castpd_si256(goLeft));
    }
    return _mm256_i64gather_pd(tree.value.data(), node, 8);
}

void
forestScoreAvx2(const FlatTree *trees, std::size_t nTrees,
                const features::FeatureMatrix &x, double *out)
{
    if (!x.hasSoa() || x.rows() == 0) {
        scalarTable().forestScore(trees, nTrees, x, out);
        return;
    }
    panic_if(nTrees == 0, "forest kernel on an untrained forest");
    const double *base = x.col(0);
    const auto pr = static_cast<std::int64_t>(x.paddedRows());
    const __m256d vn =
        _mm256_set1_pd(static_cast<double>(nTrees));
    for (std::int64_t r = 0; r < pr; r += 4) {
        // Ascending-tree running sum per lane, then one divide —
        // the RandomForest::score accumulation order, bit for bit.
        __m256d total = _mm256_setzero_pd();
        for (std::size_t t = 0; t < nTrees; ++t)
            total = _mm256_add_pd(total,
                                  traverseBlock(trees[t], base, pr, r));
        _mm256_storeu_pd(out + r, _mm256_div_pd(total, vn));
    }
}

} // namespace

const KernelTable &
avx2Table()
{
    static const KernelTable table = [] {
        KernelTable t = scalarTable();
        t.target = simd::Target::Avx2;
        t.linearMargin = linearMarginVec<simd::VecAvx2>;
        t.standardizeRow = standardizeRowVec<simd::VecAvx2>;
        t.forestScore = forestScoreAvx2;
        t.rateConvertU32 = rateConvertU32Vec<simd::VecAvx2>;
        t.rateAccumulateU32 = rateAccumulateU32Vec<simd::VecAvx2>;
        t.rateConvertF64 = rateConvertF64Vec<simd::VecAvx2>;
        t.mlpHiddenPre = mlpHiddenPreVec<simd::VecAvx2>;
        t.momentumStep = momentumStepVec<simd::VecAvx2>;
        return t;
    }();
    return table;
}

} // namespace rhmd::ml::detail

#endif // __AVX2__
